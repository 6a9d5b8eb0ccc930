let default_max_line = 8 * 1024 * 1024

type reader = {
  fd : Unix.file_descr;
  chunk : Bytes.t;
  mutable start : int;  (* unread window into [chunk] *)
  mutable stop : int;
  acc : Buffer.t;  (* partial line carried across chunks *)
  max_line : int;
  mutable eof : bool;
}

let reader ?(max_line = default_max_line) fd =
  {
    fd;
    chunk = Bytes.create 65536;
    start = 0;
    stop = 0;
    acc = Buffer.create 256;
    max_line;
    eof = false;
  }

type frame = Line of string | Eof | Too_long

let rec refill r =
  match Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) with
  | 0 -> r.eof <- true
  | n ->
      r.start <- 0;
      r.stop <- n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> refill r
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
      r.eof <- true

let take_line r =
  let line = Buffer.contents r.acc in
  Buffer.clear r.acc;
  let n = String.length line in
  if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line

let rec read_frame r =
  if r.eof then Eof
  else if r.start >= r.stop then begin
    refill r;
    if r.eof then
      (* A final unterminated line counts as a frame; plain EOF otherwise. *)
      if Buffer.length r.acc > 0 then Line (take_line r) else Eof
    else read_frame r
  end
  else
    match Bytes.index_from_opt r.chunk r.start '\n' with
    | Some i when i < r.stop ->
        Buffer.add_subbytes r.acc r.chunk r.start (i - r.start);
        r.start <- i + 1;
        if Buffer.length r.acc > r.max_line then begin
          Buffer.clear r.acc;
          Too_long
        end
        else Line (take_line r)
    | _ ->
        Buffer.add_subbytes r.acc r.chunk r.start (r.stop - r.start);
        r.start <- r.stop;
        if Buffer.length r.acc > r.max_line then begin
          Buffer.clear r.acc;
          (* Swallow the rest of the oversized line so the reader could in
             principle resynchronise; the server drops the connection
             anyway. *)
          Too_long
        end
        else read_frame r

let write_line fd s =
  let len = String.length s + 1 in
  let payload = Bytes.create len in
  Bytes.blit_string s 0 payload 0 (len - 1);
  Bytes.set payload (len - 1) '\n';
  let rec go off =
    if off < len then
      match Unix.write fd payload off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0
