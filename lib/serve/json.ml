type encoded = string

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list
  | Encoded of encoded

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)

let hex_digits = "0123456789abcdef"

(* Runs of bytes that need no escape are copied with one blit each. *)
let add_escaped buf s =
  Buffer.add_char buf '"';
  let run = ref 0 in
  let flush i = if i > !run then Buffer.add_substring buf s !run (i - !run) in
  for i = 0 to String.length s - 1 do
    match String.unsafe_get s i with
    | ('"' | '\\') as c ->
        flush i;
        Buffer.add_char buf '\\';
        Buffer.add_char buf c;
        run := i + 1
    | '\000' .. '\031' as c ->
        flush i;
        (match c with
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\b' -> Buffer.add_string buf "\\b"
        | '\012' -> Buffer.add_string buf "\\f"
        | c ->
            Buffer.add_string buf "\\u00";
            Buffer.add_char buf hex_digits.[Char.code c lsr 4];
            Buffer.add_char buf hex_digits.[Char.code c land 15]);
        run := i + 1
    | _ -> ()
  done;
  flush (String.length s);
  Buffer.add_char buf '"'

(* The C primitive behind [Printf.sprintf "%.17g"], without the format
   interpretation around it. *)
external format_float : string -> float -> string = "caml_format_float"

let add_num buf x =
  if not (Float.is_finite x) then
    invalid_arg "Serve.Json.to_string: non-finite number";
  if Float.is_integer x && Float.abs x < 1e15 then
    (* Exact in an int; "-0" keeps the sign of negative zero, as "%.0f"
       does. *)
    if x = 0. && Float.sign_bit x then Buffer.add_string buf "-0"
    else Buffer.add_string buf (string_of_int (int_of_float x))
  else
    (* 17 significant digits reparse to the identical IEEE double. *)
    Buffer.add_string buf (format_float "%.17g" x)

let to_string v =
  let buf = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num x -> add_num buf x
    | Str s -> add_escaped buf s
    | Encoded s -> Buffer.add_string buf s
    | Arr xs ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char buf ',';
            go x)
          xs;
        Buffer.add_char buf ']'
    | Obj kvs ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, x) ->
            if i > 0 then Buffer.add_char buf ',';
            add_escaped buf k;
            Buffer.add_char buf ':';
            go x)
          kvs;
        Buffer.add_char buf '}'
  in
  go v;
  Buffer.contents buf

let encode = to_string

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)

exception Fail of string * int

let utf8_add buf cp =
  let add b = Buffer.add_char buf (Char.chr b) in
  if cp < 0x80 then add cp
  else if cp < 0x800 then begin
    add (0xC0 lor (cp lsr 6));
    add (0x80 lor (cp land 0x3F))
  end
  else if cp < 0x10000 then begin
    add (0xE0 lor (cp lsr 12));
    add (0x80 lor ((cp lsr 6) land 0x3F));
    add (0x80 lor (cp land 0x3F))
  end
  else begin
    add (0xF0 lor (cp lsr 18));
    add (0x80 lor ((cp lsr 12) land 0x3F));
    add (0x80 lor ((cp lsr 6) land 0x3F));
    add (0x80 lor (cp land 0x3F))
  end

let of_string ?(max_depth = 512) s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Fail (msg, !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let at c = !pos < n && s.[!pos] = c in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = ref 0 in
    for _ = 1 to 4 do
      let d =
        match s.[!pos] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> fail "invalid hex digit in \\u escape"
      in
      v := (!v * 16) + d;
      incr pos
    done;
    !v
  in
  let string_lit () =
    expect '"';
    (* Fast path: a string with no escape is one substring.  At anything
       else the general loop below takes over from the same position, so
       its errors and offsets are unchanged. *)
    let start = !pos in
    while
      !pos < n
      && match String.unsafe_get s !pos with
         | '"' | '\\' | '\000' .. '\031' -> false
         | _ -> true
    do
      incr pos
    done;
    if !pos < n && s.[!pos] = '"' then begin
      incr pos;
      String.sub s start (!pos - 1 - start)
    end
    else
    let buf = Buffer.create 16 in
    Buffer.add_substring buf s start (!pos - start);
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
          incr pos;
          if !pos >= n then fail "truncated escape";
          (match s.[!pos] with
          | '"' -> incr pos; Buffer.add_char buf '"'
          | '\\' -> incr pos; Buffer.add_char buf '\\'
          | '/' -> incr pos; Buffer.add_char buf '/'
          | 'b' -> incr pos; Buffer.add_char buf '\b'
          | 'f' -> incr pos; Buffer.add_char buf '\012'
          | 'n' -> incr pos; Buffer.add_char buf '\n'
          | 'r' -> incr pos; Buffer.add_char buf '\r'
          | 't' -> incr pos; Buffer.add_char buf '\t'
          | 'u' ->
              incr pos;
              let cp = hex4 () in
              if cp >= 0xD800 && cp <= 0xDBFF then begin
                (* High surrogate: a low surrogate must follow. *)
                if not (!pos + 1 < n && s.[!pos] = '\\' && s.[!pos + 1] = 'u')
                then fail "unpaired high surrogate";
                pos := !pos + 2;
                let lo = hex4 () in
                if lo < 0xDC00 || lo > 0xDFFF then fail "invalid low surrogate";
                utf8_add buf
                  (0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00))
              end
              else if cp >= 0xDC00 && cp <= 0xDFFF then
                fail "unpaired low surrogate"
              else utf8_add buf cp
          | _ -> fail "invalid escape");
          go ()
      | c when Char.code c < 0x20 -> fail "raw control character in string"
      | c ->
          incr pos;
          Buffer.add_char buf c;
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let number () =
    let start = !pos in
    let negative = at '-' in
    if negative then incr pos;
    let digits () =
      let d0 = !pos in
      while !pos < n && (match s.[!pos] with '0' .. '9' -> true | _ -> false) do
        incr pos
      done;
      if !pos = d0 then fail "malformed number"
    in
    (* RFC 8259 §6: the integer part is "0" or starts with 1-9. *)
    if !pos + 1 < n && s.[!pos] = '0'
       && match s.[!pos + 1] with '0' .. '9' -> true | _ -> false
    then begin
      incr pos;
      fail "leading zero in number"
    end;
    let int_start = !pos in
    digits ();
    let int_stop = !pos in
    if at '.' then begin incr pos; digits () end;
    (match peek () with
    | Some ('e' | 'E') ->
        incr pos;
        (match peek () with Some ('+' | '-') -> incr pos | _ -> ());
        digits ()
    | _ -> ());
    if !pos = int_stop && !pos - start <= 15 then begin
      (* Fast path: an integer literal of at most 15 characters is exact in
         an int and in a double, so float_of_string would give the same
         bits.  Negating last keeps the sign of "-0". *)
      let v = ref 0 in
      for i = int_start to int_stop - 1 do
        v := (!v * 10) + (Char.code (String.unsafe_get s i) - Char.code '0')
      done;
      let x = float_of_int !v in
      Num (if negative then -.x else x)
    end
    else
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some x when Float.is_finite x -> Num x
    | Some _ -> fail "number out of range"  (* e.g. 1e999 overflows *)
    | None -> fail "malformed number"
  in
  let keyword () =
    let lit word v =
      let l = String.length word in
      if !pos + l <= n && String.sub s !pos l = word then begin
        pos := !pos + l;
        v
      end
      else fail "invalid literal"
    in
    match peek () with
    | Some 't' -> lit "true" (Bool true)
    | Some 'f' -> lit "false" (Bool false)
    | _ -> lit "null" Null
  in
  let rec value depth =
    if depth > max_depth then fail "nesting too deep";
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        incr pos;
        skip_ws ();
        if at '}' then begin incr pos; Obj [] end
        else begin
          let rec members acc =
            skip_ws ();
            let k = string_lit () in
            skip_ws ();
            expect ':';
            let v = value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' -> incr pos; members ((k, v) :: acc)
            | Some '}' -> incr pos; List.rev ((k, v) :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Obj (members [])
        end
    | Some '[' ->
        incr pos;
        skip_ws ();
        if at ']' then begin incr pos; Arr [] end
        else begin
          let rec elements acc =
            let v = value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' -> incr pos; elements (v :: acc)
            | Some ']' -> incr pos; List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          Arr (elements [])
        end
    | Some '"' -> Str (string_lit ())
    | Some ('t' | 'f' | 'n') -> keyword ()
    | Some ('-' | '0' .. '9') -> number ()
    | Some c -> fail (Printf.sprintf "unexpected character '%c'" c)
  in
  match
    let v = value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing bytes after value";
    v
  with
  | v -> Ok v
  | exception Fail (msg, p) -> Error (Printf.sprintf "%s at offset %d" msg p)

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)

let member key = function Obj kvs -> List.assoc_opt key kvs | _ -> None
let get_str = function Str s -> Some s | _ -> None
let get_num = function Num x -> Some x | _ -> None

let get_int = function
  | Num x when Float.is_integer x && Float.abs x <= 1e15 -> Some (int_of_float x)
  | _ -> None

let get_bool = function Bool b -> Some b | _ -> None
let get_arr = function Arr xs -> Some xs | _ -> None
let get_obj = function Obj kvs -> Some kvs | _ -> None
