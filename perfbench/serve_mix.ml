(* serve-mix: a closed loop of requests over one TCP connection against an
   in-process [Serve.Server] with one worker domain, the default 256-entry
   cache and the audit off.  Per request drawn: ~90% [estimate] over a
   32-mask hot set (composability; cached during set-up), ~5% [estimate] of
   a uniformly random mask under one of the other three estimators (mostly
   misses), ~5% an [admit]+[release] pair in one session that keeps five
   residents admitted.  The process is pinned to one CPU, and every op and
   layer time is the process's CPU time ([cpu_now]), which leaves out the
   time the host gives to others. *)

open Common
module Protocol = Serve.Protocol
module Client = Serve.Client
module Server = Serve.Server
module Admission = Contention.Admission

let session = "perfbench"
let hot_size = 32
let residents = 5
let prefix = 4096
let hot_estimator = Analysis.Composability
let miss_estimators = [| Analysis.Worst_case; Analysis.Order 4; Analysis.Order 2 |]
let config = { Server.default_config with port = Some 0; jobs = Some 1 }

type req = Hot of int | Miss of int * Analysis.estimator | Admit of int | Release of int

type state = {
  w : Exp.Workload.t;
  names : string array;
  server : Server.t;
  client : Client.t;
  digest : string;
  hot : int array;
  setup_lines : string list;  (** Requests that built the server's state. *)
}

let ok_exn what = function
  | Ok x -> x
  | Error e -> failwith (Printf.sprintf "serve-mix %s: %s" what e)

let usecase_names st mask = List.map (fun i -> st.names.(i)) (Contention.Usecase.to_list mask)

let rec to_request st = function
  | Hot mask -> to_request st (Miss (mask, hot_estimator))
  | Miss (mask, estimator) ->
      Protocol.Estimate { digest = st.digest; usecase = Some (usecase_names st mask); estimator }
  | Admit a ->
      Protocol.Admit
        {
          session;
          digest = st.digest;
          app = st.names.(a);
          min_throughput = 0.;
          confidence = None;
          margin_method = None;
        }
  | Release a -> Protocol.Release { session; app = st.names.(a) }

let line_of st r = Json.to_string (Protocol.request_to_json (to_request st r))

(* The request stream: a pure function of the seed. *)
type gen = { g : Random.State.t; mutable pending : int option; mutable next_app : int }

let gen ~seed = { g = rng ~seed 4; pending = None; next_app = 0 }

let next st gen =
  match gen.pending with
  | Some a ->
      gen.pending <- None;
      Release a
  | None ->
      let u = Random.State.float gen.g 1. in
      if u < 0.925 then Hot st.hot.(Random.State.int gen.g hot_size)
      else if u < 0.975 then
        let mask = 1 + Random.State.int gen.g nusecases in
        Miss (mask, miss_estimators.(Random.State.int gen.g (Array.length miss_estimators)))
      else begin
        let a = residents + gen.next_app in
        gen.next_app <- (gen.next_app + 1) mod (napps - residents);
        gen.pending <- Some a;
        Admit a
      end

let setup ~seed () =
  let w = workload () in
  let server = Server.start ~config () in
  let client = ok_exn "connect" (Client.connect ~port:(Option.get (Server.tcp_port server)) ()) in
  let payload = Exp.Workload.to_string w in
  let up = ok_exn "upload" (Client.upload client ~payload) in
  let st =
    {
      w;
      names = Exp.Workload.names w;
      server;
      client;
      digest = up.digest;
      hot = sample ~tag:3 ~seed hot_size;
      setup_lines = [];
    }
  in
  let warm =
    List.init residents (fun a -> Admit a) @ List.map (fun m -> Hot m) (Array.to_list st.hot)
  in
  List.iter
    (fun r ->
      let json = Protocol.request_to_json (to_request st r) in
      match ok_exn "set-up request" (Client.request st.client json) with
      | payload -> (
          match r with
          | Admit _ -> (
              match Protocol.verdict_of_json payload with
              | Ok (Protocol.Admitted _) -> ()
              | _ -> failwith "serve-mix: a resident was not admitted")
          | _ -> ()))
    warm;
  {
    st with
    setup_lines =
      Json.to_string (Protocol.request_to_json (Protocol.Upload { payload }))
      :: List.map (line_of st) warm;
  }

let teardown st =
  Client.close st.client;
  Server.stop st.server

(* ------------------------------------------------------------------ *)
(* Reply checks *)

type tally = {
  rows : (int * string, Protocol.estimate_row list * int ref) Hashtbl.t;
      (** First rows served per (mask, estimator), and how often served. *)
  mutable prefix_hits : int;
  mutable prefix_misses : int;
}

let tally () = { rows = Hashtbl.create 4096; prefix_hits = 0; prefix_misses = 0 }

let row_equal (a : Protocol.estimate_row) (b : Protocol.estimate_row) =
  a.app = b.app && same_bits a.period b.period
  && same_bits a.isolation_period b.isolation_period
  && same_bits a.throughput b.throughput

let rows_equal a b = List.length a = List.length b && List.for_all2 row_equal a b

(* Checks one reply; returns whether an estimate was served from cache. *)
let check_reply c t ~i r reply =
  match reply with
  | Error e -> fail c "request %d: transport: %s" i e; false
  | Ok (Protocol.Reply_error e) -> fail c "request %d: error reply: %s" i e; false
  | Ok (Protocol.Reply_shed _) -> fail c "request %d: shed" i; false
  | Ok (Protocol.Reply_ok payload) -> (
      match r with
      | Hot mask | Miss (mask, _) -> (
          let est = match r with Miss (_, e) -> e | _ -> hot_estimator in
          match Protocol.estimate_reply_of_json payload with
          | Error e -> fail c "request %d: bad estimate reply: %s" i e; false
          | Ok reply ->
              if i < prefix then
                if reply.cached then t.prefix_hits <- t.prefix_hits + 1
                else t.prefix_misses <- t.prefix_misses + 1;
              let key = (mask, Analysis.estimator_name est) in
              (match Hashtbl.find_opt t.rows key with
              | None -> Hashtbl.add t.rows key (reply.rows, ref 1)
              | Some (rows, n) ->
                  incr n;
                  if not (rows_equal rows reply.rows) then
                    fail c "request %d: rows for use-case %d %s changed" i mask (snd key));
              reply.cached)
      | Admit a -> (
          match Protocol.verdict_of_json payload with
          | Ok (Protocol.Admitted _) -> false
          | _ -> fail c "request %d: application %d was not admitted" i a; false)
      | Release _ -> false)

(* Every distinct reply against a direct [Analysis.estimate], bit for bit;
   a wrong one fails every request it answered. *)
let check_rows c st t =
  Hashtbl.iter
    (fun (mask, name) (rows, n) ->
      let est =
        List.find (fun e -> Analysis.estimator_name e = name) Analysis.all_paper_estimators
      in
      let expected =
        List.map
          (fun (r : Analysis.estimate) ->
            {
              Protocol.app = r.for_app.graph.Sdf.Graph.name;
              period = r.period;
              isolation_period = r.for_app.isolation_period;
              throughput = Analysis.throughput r;
            })
          (Analysis.estimate est (Exp.Workload.analysis_apps st.w mask))
      in
      if not (rows_equal rows expected) then
        fail c ~weight:!n "use-case %d %s: served rows differ from Analysis.estimate" mask name)
    t.rows

let untraced c st t ~seed ~seconds =
  (* Sized for the whole window up front, so that growing them does not
     move the peak RSS from run to run. *)
  let lat = Fbuf.create ~capacity:(1 lsl 18) () and ends = Fbuf.create ~capacity:(1 lsl 18) () in
  let g = gen ~seed in
  let t_start = now () in
  let i = ref 0 and wall_ns = ref 0 in
  while seconds_since t_start < seconds do
    let r = next st g in
    let json = Protocol.request_to_json (to_request st r) in
    let t0 = now () in
    let c0 = cpu_now () in
    let reply = Client.request_classified st.client json in
    let c1 = cpu_now () in
    let t1 = now () in
    wall_ns := !wall_ns + (t1 - t0);
    Fbuf.push lat (float_of_int (c1 - c0) *. 1e-3);
    Fbuf.push ends (float_of_int t1);
    ignore (check_reply c t ~i:!i r reply);
    Calib.tick ();
    incr i
  done;
  (!i, Fbuf.contents lat, Fbuf.contents ends, float_of_int !i /. (float_of_int !wall_ns *. 1e-9))

(* The cache hits and misses of the first [n] requests of the stream,
   replayed in-process on a mirror: a second server fed the set-up requests
   in-process, so that its state is that of a freshly set-up [st.server].
   Nothing connects to it. *)
let replayed_prefix st ~seed n =
  let m = Server.start ~config () in
  List.iter (fun line -> ignore (Server.handle_line m line)) st.setup_lines;
  let g = gen ~seed in
  let hits = ref 0 and misses = ref 0 in
  for _ = 1 to n do
    let r = next st g in
    let reply = Json.of_string (Server.handle_line m (line_of st r)) in
    match (r, reply) with
    | (Hot _ | Miss _), Ok j -> (
        match Protocol.classify_reply j with
        | Protocol.Reply_ok p -> (
            match Protocol.estimate_reply_of_json p with
            | Ok e -> if e.cached then incr hits else incr misses
            | Error _ -> ())
        | _ -> ())
    | _ -> ()
  done;
  Server.stop m;
  (!hits, !misses)

type layers = {
  mutable client_ns : int;  (** The client's request encode and reply parse. *)
  mutable decode_ns : int;
  mutable handle_ns : int;
  mutable encode_ns : int;
  mutable ping_ns : int;  (** [ping] round trips. *)
  mutable ping_handle_ns : int;  (** The same pings handled in-process. *)
  mutable miss_ns : int;
  mutable misses : int;
  mutable admit_ns : int;
  mutable admits : int;
  mutable withdraw_ns : int;
  mutable withdraws : int;
}

let block = 256

(* Traced phase, on a freshly set-up server, in blocks of [block] requests
   with each kind of work timed back to back (interleaving them slowed
   each one):
   - the requests in-process on the server, through the layer entry
     points: the client's encode, decode, [Server.handle_line], the
     client's reply parse, encode; every admit/release also through
     [Admission.try_admit] / [withdraw] on a local controller holding the
     same residents;
   - [block] pings over the wire, and the same pings handled in-process:
     their difference is the transport alone.
   The server's state evolves as over the wire, so the requests take the
   same cache hits and misses as in the untraced phase.  No mirror server
   is started: its idle domains would join every stop-the-world collection
   and slow the whole phase. *)
let traced c st t ~seed ~seconds =
  let ping_line = Json.to_string (Protocol.request_to_json Protocol.Ping) in
  let ctl = Admission.create ~procs:st.w.procs () in
  for a = 0 to residents - 1 do
    ignore (Admission.try_admit ctl st.w.apps.(a) Admission.best_effort)
  done;
  let l =
    { client_ns = 0; decode_ns = 0; handle_ns = 0; encode_ns = 0; ping_ns = 0; ping_handle_ns = 0;
      miss_ns = 0; misses = 0; admit_ns = 0; admits = 0; withdraw_ns = 0; withdraws = 0 }
  in
  let g = gen ~seed in
  let pings = Fbuf.create () in
  let t_start = now () and c_start = cpu_now () and spent0 = !Calib.spent_clock in
  let n = ref 0 in
  while seconds_since t_start < seconds do
    for k = 0 to block - 1 do
      let i = !n + k in
      let r = next st g in
      let json = Protocol.request_to_json (to_request st r) in
      let t0 = cpu_now () in
      let line = Json.to_string json in
      let t1 = cpu_now () in
      (match Json.of_string line with
      | Ok j -> ignore (Sys.opaque_identity (Protocol.request_of_json j))
      | Error e -> fail c "request %d: does not parse: %s" i e);
      let t2 = cpu_now () in
      let rline = Server.handle_line st.server line in
      let t3 = cpu_now () in
      let rjson = Json.of_string rline in
      let reply = Result.map Protocol.classify_reply rjson in
      let t4 = cpu_now () in
      (match rjson with Ok j -> ignore (Sys.opaque_identity (Json.to_string j)) | Error _ -> ());
      let t5 = cpu_now () in
      l.client_ns <- l.client_ns + (t1 - t0) + (t4 - t3);
      l.decode_ns <- l.decode_ns + (t2 - t1);
      l.handle_ns <- l.handle_ns + (t3 - t2);
      l.encode_ns <- l.encode_ns + (t5 - t4);
      let cached = check_reply c t ~i r reply in
      (match r with
      | Hot _ | Miss _ ->
          if not cached then begin
            l.miss_ns <- l.miss_ns + (t3 - t2);
            l.misses <- l.misses + 1
          end
      | Admit a ->
          let t0 = cpu_now () in
          let v = Admission.try_admit ctl st.w.apps.(a) Admission.best_effort in
          l.admit_ns <- l.admit_ns + (cpu_now () - t0);
          l.admits <- l.admits + 1;
          (match v with Admission.Admitted _ -> () | _ -> fail c "request %d: local admit refused" i)
      | Release a ->
          let t0 = cpu_now () in
          Admission.withdraw ctl st.names.(a);
          l.withdraw_ns <- l.withdraw_ns + (cpu_now () - t0);
          l.withdraws <- l.withdraws + 1);
      Calib.tick ()
    done;
    for _ = 1 to block do
      let t0 = cpu_now () in
      (match Client.ping st.client with Ok () -> () | Error e -> fail c "ping: %s" e);
      let t1 = cpu_now () in
      ignore (Sys.opaque_identity (Server.handle_line st.server ping_line));
      let t2 = cpu_now () in
      l.ping_ns <- l.ping_ns + (t1 - t0);
      l.ping_handle_ns <- l.ping_handle_ns + (t2 - t1);
      Fbuf.push pings (float_of_int ((t1 - t0) - (t2 - t1)) *. 1e-3);
      Calib.tick ()
    done;
    n := !n + block
  done;
  let traced_ns =
    float_of_int (cpu_now () - c_start - (!Calib.spent_clock - spent0)) /. float_of_int !n
  in
  (!n, l, traced_ns, Fbuf.contents pings)

external last_allowed_cpu : unit -> int = "perfbench_last_allowed_cpu"
external pin_to_cpu : int -> bool = "perfbench_pin_to_cpu"

(* Pins the process, before it starts any domain, to one CPU: the client,
   the server's domains and the host-speed kernel then share it, so that a
   round trip pays two local context switches rather than two cross-CPU
   wake-ups, whose cost on a shared host depends on what the other CPU is
   doing and which the kernel cannot follow.  Returns the CPU, or -1 when
   pinning failed and the run goes on unpinned. *)
let pin () =
  let cpu = if Sys.getenv_opt "NOPIN" = Some "1" then -2 else last_allowed_cpu () in
  if cpu = -2 then -2 else
  if cpu >= 0 && pin_to_cpu cpu then cpu
  else begin
    prerr_endline "perfbench: WARNING: could not pin serve-mix to one CPU; running unpinned";
    -1
  end

let run ~seed ~seconds ~trace =
  let cpu = pin () in
  Calib.clock := cpu_now;
  Calib.use Calib.Event_loop;
  let c = checks () in
  let st, setup_metric = repeated_setup ~discard:teardown (setup ~seed) in
  let t = tally () in
  let u0 = now () in
  let n_untraced, lat, ends, wall_rate = untraced c st t ~seed ~seconds in
  let untraced_span = (u0, now ()) in
  let stats = ok_exn "stats" (Client.stats st.client) in
  let prefix_counts = (t.prefix_hits, t.prefix_misses) in
  let replayed = replayed_prefix st ~seed (Int.min prefix n_untraced) in
  if replayed <> prefix_counts then
    fail c "prefix hits/misses %d/%d over the wire, %d/%d replayed in-process" t.prefix_hits
      t.prefix_misses (fst replayed) (snd replayed);
  (* Table-1 accuracy of what the server serves, over the seeded sample. *)
  let served = Hashtbl.create 512 in
  Array.iter
    (fun uc ->
      Array.iter
        (fun est ->
          let r =
            ok_exn "estimate"
              (Client.estimate st.client ~digest:st.digest ~usecase:(usecase_names st uc)
                 ~estimator:est ())
          in
          Hashtbl.replace served (uc, est)
            (Array.of_list (List.map (fun (row : Protocol.estimate_row) -> row.period) r.rows)))
        estimators)
    (sample ~seed accuracy_sample_size);
  let sweep = simulate_sample ~seed st.w in
  let err = accuracy c ~sweep ~periods:(fun uc est -> Hashtbl.find_opt served (uc, est)) in
  let e2e =
    List.map
      (fun m ->
        if m.name = "ops_per_s" then
          { m with prov = m.prov @ [ ("pinned_cpu", int cpu); ("wall_rate_raw", num wall_rate) ] }
        else m)
      (timing_metrics ~lat ~ends ~chunks:(chunked 10))
    @ [ setup_metric ] @ err
  in
  teardown st;
  let attempted, layers =
    if not trace then (n_untraced, [])
    else begin
      let st = setup ~seed () in
      let t' = tally () in
      let t0 = now () in
      let n_traced, l, traced_ns, pings = traced c st t' ~seed ~seconds in
      let traced_span = (t0, now ()) in
      teardown st;
      if (t'.prefix_hits, t'.prefix_misses) <> prefix_counts then
        fail c "prefix hits/misses %d/%d in the traced phase, %d/%d untraced" t'.prefix_hits
          t'.prefix_misses (fst prefix_counts) (snd prefix_counts);
      Hashtbl.iter
        (fun k (rows, n) ->
          match Hashtbl.find_opt t.rows k with
          | Some (rows', n') ->
              if not (rows_equal rows rows') then fail c ~weight:!n "rows changed between phases";
              n' := !n' + !n
          | None -> Hashtbl.add t.rows k (rows, n))
        t'.rows;
      let per x n = if n = 0 then 0. else float_of_int x *. 1e-3 /. float_of_int n in
      let us x = per x n_traced in
      (* Everything of a round trip outside [handle_line]: the transport,
         timed by pings, and the client's own encode and parse. *)
      let transport_ns = l.ping_ns - l.ping_handle_ns in
      let tq1, tmed, tq3 = quartiles pings in
      let wire_ns = transport_ns + l.client_ns in
      (* The layers: decode + dispatch + encode (= handle, with dispatch =
         handle - decode - encode) + wire, against the untraced round trip. *)
      let e2e_ns = mean lat *. 1e3 in
      let layer_ns = float_of_int (l.handle_ns + wire_ns) /. float_of_int n_traced in
      let reqs = [ ("requests", int n_traced) ] in
      ( n_untraced + n_traced,
        [
          prepare_metric st.w;
          metric "admission.admit_us" "us" (per l.admit_ns l.admits)
            ~prov:[ ("admits", int l.admits) ];
          metric "admission.withdraw_us" "us" (per l.withdraw_ns l.withdraws)
            ~prov:[ ("withdraws", int l.withdraws) ];
          metric "serve.decode_us" "us" (us l.decode_ns) ~prov:reqs;
          metric "serve.handle_us" "us" (us l.handle_ns) ~prov:reqs;
          metric "serve.encode_us" "us" (us l.encode_ns) ~prov:reqs;
          metric "serve.wire_us" "us" (us wire_ns)
            ~prov:
              ([
                 ( "definition",
                   Json.Str
                     "ping round trip minus the ping handled in-process, plus the client's \
                      request encode and reply parse" );
                 ("transport_us_raw", num (us transport_ns));
                 ("client_codec_us_raw", num (us l.client_ns));
                 ("transport_quartiles_us_raw", Json.Arr [ num tq1; num tmed; num tq3 ]);
                 ("transport_p99_us_raw", num (rank (sorted pings) 0.99));
               ]
              @ reqs);
          metric "serve.miss_us" "us" (per l.miss_ns l.misses) ~prov:[ ("misses", int l.misses) ];
          metric "serve.cache_hit_ratio" "ratio" (Serve.Protocol.cache_hit_rate stats)
            ~prov:[ ("hits", int stats.cache_hits); ("misses", int stats.cache_misses) ];
          metric "serve.prefix_hits" "count" (float_of_int (fst prefix_counts))
            ~prov:[ ("per", Json.Str (Printf.sprintf "first %d requests" prefix)) ];
          metric "serve.prefix_misses" "count" (float_of_int (snd prefix_counts))
            ~prov:[ ("per", Json.Str (Printf.sprintf "first %d requests" prefix)) ];
        ]
        @ ledger_metrics ~untraced:untraced_span ~traced:traced_span ~e2e_ns ~layer_ns ~traced_ns )
    end
  in
  check_rows c st t;
  { attempted; checks = c; e2e; layers }
