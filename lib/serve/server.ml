type config = {
  host : string;
  port : int option;
  unix_path : string option;
  jobs : int option;
  cache_capacity : int;
  max_line : int;
  max_queue : int;
  hot_threshold : int;
  journal_path : string option;
  journal_sample : int;
  journal_max_bytes : int;
  slo_objective_ms : float;
  slo_target : float;
  shard : string option;
  audit_sample : int;  (* audit 1-in-N served estimates; 0 = off *)
  audit_horizon : float;  (* simulation horizon of audit replays *)
  audit_drift_delta : float;  (* Page-Hinkley per-step slack *)
  audit_drift_lambda : float;  (* Page-Hinkley alarm threshold *)
}

let default_config =
  {
    host = "127.0.0.1";
    port = Some 4557;
    unix_path = None;
    jobs = None;
    cache_capacity = 256;
    max_line = 8 * 1024 * 1024;
    max_queue = 1024;
    hot_threshold = 0;
    journal_path = None;
    journal_sample = 16;
    journal_max_bytes = 8 * 1024 * 1024;
    slo_objective_ms = 50.;
    slo_target = 0.999;
    shard = None;
    audit_sample = 0;
    audit_horizon = Audit.default_config.Audit.horizon;
    audit_drift_delta = Audit.default_config.Audit.drift_delta;
    audit_drift_lambda = Audit.default_config.Audit.drift_lambda;
  }

type hot_entry = {
  hot_digest : string;
  hot_mask : Contention.Usecase.t;
  hot_estimator : string;
  hot_rows : Protocol.estimate_row list;
}

(* ------------------------------------------------------------------ *)
(* A closeable blocking queue of accepted connections                  *)

module Chan = struct
  type 'a t = {
    q : 'a Queue.t;
    mutex : Mutex.t;
    cond : Condition.t;
    mutable closed : bool;
  }

  let create () =
    {
      q = Queue.create ();
      mutex = Mutex.create ();
      cond = Condition.create ();
      closed = false;
    }

  let push t x =
    Mutex.lock t.mutex;
    let accepted = not t.closed in
    if accepted then begin
      Queue.push x t.q;
      Condition.signal t.cond
    end;
    Mutex.unlock t.mutex;
    accepted

  (* Blocks until an element or close; keeps draining queued elements after
     close so already accepted connections are still served. *)
  let pop t =
    Mutex.lock t.mutex;
    while Queue.is_empty t.q && not t.closed do
      Condition.wait t.cond t.mutex
    done;
    let x = if Queue.is_empty t.q then None else Some (Queue.pop t.q) in
    Mutex.unlock t.mutex;
    x

  let close t =
    Mutex.lock t.mutex;
    t.closed <- true;
    Condition.broadcast t.cond;
    Mutex.unlock t.mutex

  let length t =
    Mutex.lock t.mutex;
    let n = Queue.length t.q in
    Mutex.unlock t.mutex;
    n
end

(* ------------------------------------------------------------------ *)

type cache_key = string * Contention.Usecase.t * string

(* A cache entry keeps its rows, for hot replication and the audit, and
   their reply text, encoded once when the entry is filled: a hit then
   formats no float. *)
type cache_entry = { rows : Protocol.estimate_row list; results : Json.encoded }

let cache_entry rows = { rows; results = Protocol.encode_results rows }

type cmd_series = {
  requests : Obs.Metric.Counter.t;
  latency : Obs.Metric.Histogram.t;
}

type t = {
  config : config;
  store : Store.t;
  cache : (cache_key, cache_entry) Lru.t;
  metrics : Metrics.t;
  workers : int;  (* worker-domain count — the pool's capacity *)
  registry : Obs.Metric.registry;
  m_active : Obs.Metric.Gauge.t;  (* connections being served right now *)
  m_queue_depth : Obs.Metric.Gauge.t;  (* accepted, waiting for a worker *)
  m_cache_hits : Obs.Metric.Counter.t;
  m_cache_misses : Obs.Metric.Counter.t;
  m_shed : Obs.Metric.Counter.t;  (* connections refused: queue full *)
  m_burn_1m : Obs.Metric.Gauge.t;  (* SLO burn rates, refreshed on scrape *)
  m_burn_1h : Obs.Metric.Gauge.t;
  slo : Slo.t;
  journal : Journal.t option;
  audit : Audit.t option;
  (* Hot-digest tracking: estimate-request counts per cache key.  When a
     key's count crosses [hot_threshold], [on_hot] fires once with the rows
     so the owner (the CLI's cluster glue) can replicate them to peers. *)
  hot : (cache_key, int) Hashtbl.t;
  hot_mutex : Mutex.t;
  on_hot : (hot_entry -> unit) option;
  sessions : (string, Contention.Admission.t) Hashtbl.t;
  sessions_mutex : Mutex.t;
  (* Per-workload analysis caches (loads, HSDF expansion, kernel graph),
     keyed by digest: computed once, shared by every estimate served. *)
  prepared : (string, Contention.Analysis.cache array) Hashtbl.t;
  prepared_mutex : Mutex.t;
  conns : Unix.file_descr Chan.t;
  listeners : Unix.file_descr list;
  bound_tcp_port : int option;
  (* Connections currently being served, so stop can shut their read side
     down and unblock workers idling on keep-alive clients. *)
  active : (Unix.file_descr, unit) Hashtbl.t;
  active_mutex : Mutex.t;
  stop_requested : bool Atomic.t;  (* a client sent the shutdown command *)
  stopping : bool Atomic.t;  (* stop () has begun *)
  stopped : bool Atomic.t;
  mutable domains : unit Domain.t list;
  cmd_series : cmd_series option Atomic.t array;  (* by command index *)
}

let tcp_port t = t.bound_tcp_port
let audit t = t.audit
let shutdown_requested t = Atomic.get t.stop_requested
let metrics_registry t = t.registry

(* Register a connection as active; refuse when the server is stopping (the
   caller then closes it unserved).  Registration and the stop-side sweep
   take the same mutex, so no connection can slip past the sweep. *)
let register_active t fd =
  Mutex.lock t.active_mutex;
  let accepted = not (Atomic.get t.stopping) in
  if accepted then Hashtbl.replace t.active fd ();
  let n = Hashtbl.length t.active in
  Mutex.unlock t.active_mutex;
  if accepted then Obs.Metric.Gauge.set t.m_active (float_of_int n);
  accepted

let unregister_active t fd =
  Mutex.lock t.active_mutex;
  Hashtbl.remove t.active fd;
  let n = Hashtbl.length t.active in
  Mutex.unlock t.active_mutex;
  Obs.Metric.Gauge.set t.m_active (float_of_int n)

let active_count t =
  Mutex.lock t.active_mutex;
  let n = Hashtbl.length t.active in
  Mutex.unlock t.active_mutex;
  n

(* ------------------------------------------------------------------ *)
(* Session registry                                                    *)

let with_sessions t f =
  Mutex.lock t.sessions_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.sessions_mutex) f

let session_count t = with_sessions t (fun () -> Hashtbl.length t.sessions)

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)

let resolve_usecase w = function
  | None -> Ok (Contention.Usecase.full ~napps:(Exp.Workload.num_apps w))
  | Some [] -> Error "usecase must name at least one application"
  | Some names ->
      List.fold_left
        (fun acc name ->
          match acc with
          | Error _ as e -> e
          | Ok mask -> (
              match Exp.Workload.app_index w name with
              | i -> Ok (Contention.Usecase.add i mask)
              | exception Not_found ->
                  Error (Printf.sprintf "unknown application %S" name)))
        (Ok 0) names

let prepared_for t ~digest (w : Exp.Workload.t) =
  Mutex.lock t.prepared_mutex;
  match Hashtbl.find_opt t.prepared digest with
  | Some caches ->
      Mutex.unlock t.prepared_mutex;
      caches
  | None ->
      Mutex.unlock t.prepared_mutex;
      (* Prepare outside the lock — it is pure per-app work, and two workers
         racing on a fresh digest just compute identical caches. *)
      let caches = Array.map Contention.Analysis.prepare w.apps in
      Mutex.lock t.prepared_mutex;
      let caches =
        match Hashtbl.find_opt t.prepared digest with
        | Some existing -> existing
        | None ->
            Hashtbl.add t.prepared digest caches;
            caches
      in
      Mutex.unlock t.prepared_mutex;
      caches

let estimate_rows estimator pairs =
  List.map
    (fun (r : Contention.Analysis.estimate) ->
      {
        Protocol.app = r.for_app.graph.Sdf.Graph.name;
        period = r.period;
        isolation_period = r.for_app.isolation_period;
        throughput = Contention.Analysis.throughput r;
      })
    (* The kernel engine over this worker domain's workspace; bit-identical
       to [Contention.Analysis.estimate estimator apps], so cached and fresh
       replies stay equal. *)
    (Contention.Analysis.estimate_prepared
       ~workspace:(Contention.Analysis.shared_workspace ())
       estimator pairs)

(* Bump the request count of a cache key; the crossing of [hot_threshold]
   (exactly once per key) hands the rows to [on_hot] so the cluster glue can
   replicate the entry to peers.  A failing hook must not fail the request. *)
let note_hot t ~digest ~mask ~name rows =
  match t.on_hot with
  | None -> ()
  | Some hook when t.config.hot_threshold > 0 ->
      let key = (digest, mask, name) in
      Mutex.lock t.hot_mutex;
      let n = 1 + Option.value ~default:0 (Hashtbl.find_opt t.hot key) in
      Hashtbl.replace t.hot key n;
      Mutex.unlock t.hot_mutex;
      if n = t.config.hot_threshold then begin
        try
          hook
            {
              hot_digest = digest;
              hot_mask = mask;
              hot_estimator = name;
              hot_rows = rows;
            }
        with _ -> ()
      end
  | Some _ -> ()

let handle_estimate t ~digest ~usecase ~estimator =
  match Store.find t.store digest with
  | None -> Protocol.error (Printf.sprintf "unknown workload digest %S" digest)
  | Some w -> (
      match resolve_usecase w usecase with
      | Error msg -> Protocol.error msg
      | Ok mask ->
          let name = Protocol.estimator_to_string estimator in
          let key = (digest, mask, name) in
          let cached, { rows; results } =
            match Lru.find t.cache key with
            | Some entry ->
                Obs.Metric.Counter.inc t.m_cache_hits;
                (true, entry)
            | None ->
                Obs.Metric.Counter.inc t.m_cache_misses;
                let caches = prepared_for t ~digest w in
                let pairs =
                  List.map
                    (fun i -> (w.apps.(i), caches.(i)))
                    (Contention.Usecase.to_list mask)
                in
                let entry = cache_entry (estimate_rows estimator pairs) in
                Lru.put t.cache key entry;
                (false, entry)
          in
          note_hot t ~digest ~mask ~name rows;
          (* Shadow audit: hand a head-sampled fraction of served estimates
             (cached or fresh — both were served) to the background replay
             domain, tagged with the originating trace context.  A full
             queue drops the sample; the serve path never blocks on it. *)
          (match t.audit with
          | Some audit when Audit.sampled audit ->
              ignore
                (Audit.submit audit
                   {
                     Audit.digest;
                     workload = w;
                     mask;
                     estimator = name;
                     rows;
                     ctx = Obs.Span.current_context ();
                   })
          | _ -> ());
          Protocol.ok
            (Protocol.encoded_estimate_reply_to_json ~cached ~estimator:name
               results))

let handle_explain t ~digest ~usecase ~estimator =
  match Store.find t.store digest with
  | None -> Protocol.error (Printf.sprintf "unknown workload digest %S" digest)
  | Some w -> (
      match resolve_usecase w usecase with
      | Error msg -> Protocol.error msg
      | Ok mask ->
          (* The reference pass over the same apps the estimate ran on:
             bit-identical to the kernel-served rows (the PR 5 contract),
             so the record reproduces what was actually answered. *)
          let apps =
            List.map (fun i -> w.apps.(i)) (Contention.Usecase.to_list mask)
          in
          let e = Contention.Explain.compute estimator apps in
          Protocol.ok (Protocol.explain_reply_to_json e))

let handle_cache_put t ~digest ~mask ~estimator ~rows =
  (* Accept only keys an estimate request could produce: a stored workload
     and a canonical estimator name — otherwise the entry could never hit. *)
  match Store.find t.store digest with
  | None -> Protocol.error (Printf.sprintf "unknown workload digest %S" digest)
  | Some w -> (
      match Protocol.estimator_of_string estimator with
      | Error msg -> Protocol.error msg
      | Ok est ->
          let napps = Exp.Workload.num_apps w in
          if mask <= 0 || mask >= 1 lsl napps then
            Protocol.error
              (Printf.sprintf "mask %d out of range for %d applications" mask
                 napps)
          else begin
            let name = Protocol.estimator_to_string est in
            Lru.put t.cache (digest, mask, name) (cache_entry rows);
            Protocol.ok
              (Json.Obj
                 [ ("installed", Json.Bool true); ("estimator", Json.Str name) ])
          end)

(* The session's admitted applications that resolve in this workload — the
   population mix an audit replay of a served margin is simulated under.
   Names admitted from another workload in the same session are skipped:
   they cannot be replayed against [w]. *)
let session_mask w ctl =
  List.fold_left
    (fun mask (name, _, _) ->
      match Exp.Workload.app_index w name with
      | exception Not_found -> mask
      | i -> Contention.Usecase.add i mask)
    (Contention.Usecase.of_list [])
    (Contention.Admission.admitted ctl)

let handle_admit t ~session ~digest ~app ~min_throughput ~confidence
    ~margin_method =
  match Store.find t.store digest with
  | None -> Protocol.error (Printf.sprintf "unknown workload digest %S" digest)
  | Some w -> (
      match Exp.Workload.app_index w app with
      | exception Not_found ->
          Protocol.error (Printf.sprintf "unknown application %S" app)
      | i ->
          let a = w.apps.(i) in
          let margin_spec =
            Option.map
              (fun c ->
                {
                  Contention.Admission.default_margin_spec with
                  confidence = c;
                  method_ =
                    Option.value margin_method
                      ~default:Contention.Margin.Z_score;
                })
              confidence
          in
          with_sessions t (fun () ->
              let ctl =
                match Hashtbl.find_opt t.sessions session with
                | Some ctl -> ctl
                | None ->
                    let ctl = Contention.Admission.create ~procs:w.procs () in
                    Hashtbl.add t.sessions session ctl;
                    ctl
              in
              match ctl with
              | ctl when Contention.Admission.procs ctl <> w.procs ->
                  Protocol.error
                    (Printf.sprintf
                       "session %S manages %d processors but the workload has %d"
                       session
                       (Contention.Admission.procs ctl)
                       w.procs)
              | ctl -> (
                  match
                    Contention.Admission.try_admit ?margin:margin_spec ctl a
                      { Contention.Admission.min_throughput }
                  with
                  | exception Invalid_argument msg -> Protocol.error msg
                  | paper_verdict ->
                      let verdict =
                        match paper_verdict with
                        | Contention.Admission.Admitted { period; margin } ->
                            Protocol.Admitted { throughput = 1. /. period; margin }
                        | Contention.Admission.Rejected_candidate
                            { estimated; required } ->
                            Protocol.Rejected_candidate { estimated; required }
                        | Contention.Admission.Rejected_victim
                            { app = victim; estimated; required } ->
                            Protocol.Rejected_victim
                              { victim; estimated; required }
                      in
                      Metrics.record_admission_verdict t.metrics verdict;
                      (match verdict with
                      | Protocol.Admitted { margin = Some m; _ } -> (
                          Obs.Metric.Histogram.observe
                            (Obs.Metric.Histogram.v ~registry:t.registry
                               ~help:
                                 "Relative width (width/period) of served \
                                  admission margins."
                               "contention_serve_margin_rel_width")
                            (Contention.Margin.rel_width m);
                          (* Sampled margins get the same shadow-audit
                             treatment as estimates: replay the admitted mix
                             and test coverage of the served interval. *)
                          match t.audit with
                          | Some audit when Audit.sampled audit ->
                              ignore
                                (Audit.submit_margin audit
                                   {
                                     Audit.m_digest = digest;
                                     m_workload = w;
                                     m_mask = session_mask w ctl;
                                     m_app = app;
                                     m_margin = m;
                                     m_ctx = Obs.Span.current_context ();
                                   })
                          | _ -> ())
                      | _ -> ());
                      Protocol.ok (Protocol.verdict_to_json verdict))))

let handle_release t ~session ~app =
  with_sessions t (fun () ->
      match Hashtbl.find_opt t.sessions session with
      | None -> Protocol.error (Printf.sprintf "unknown session %S" session)
      | Some ctl -> (
          (* Total: an unknown app id is an error reply, never an exception
             escaping the worker (the stale-release wirefuzz contract). *)
          match Contention.Admission.release ctl app with
          | Ok () ->
              Metrics.incr_released t.metrics;
              Protocol.ok
                (Json.Obj
                   [ ("released", Json.Str app); ("session", Json.Str session) ])
          | Error _ ->
              Protocol.error
                (Printf.sprintf "application %S is not admitted in session %S"
                   app session)))

(* The burn gauges are computed, not incremented: refresh them from the
   ring whenever somebody looks (stats or a Prometheus scrape). *)
let refresh_slo_gauges t =
  let s = Slo.snapshot t.slo in
  Obs.Metric.Gauge.set t.m_burn_1m s.burn_1m;
  Obs.Metric.Gauge.set t.m_burn_1h s.burn_1h;
  s

let handle_stats t =
  let slo = refresh_slo_gauges t in
  let m = Metrics.snapshot t.metrics in
  Protocol.ok
    (Protocol.stats_reply_to_json
       {
         Protocol.uptime_s = m.uptime_s;
         connections = m.connections;
         requests = m.requests;
         requests_total = m.requests_total;
         workloads = Store.count t.store;
         sessions = session_count t;
         cache_entries = Lru.length t.cache;
         cache_capacity = Lru.capacity t.cache;
         cache_hits = Lru.hits t.cache;
         cache_misses = Lru.misses t.cache;
         active_connections = active_count t;
         workers = t.workers;
         queue_capacity = t.config.max_queue;
         shed = m.shed;
         admitted = m.admitted;
         rejected_candidate = m.rejected_candidate;
         rejected_victim = m.rejected_victim;
         released = m.released;
         margins_served = m.margins_served;
         margin_mean_rel_width = m.margin_mean_rel_width;
         latency_mean_us = m.latency_mean_us;
         latency_p50_us = m.latency_p50_us;
         latency_p90_us = m.latency_p90_us;
         latency_p99_us = m.latency_p99_us;
         latency_max_us = m.latency_max_us;
         latency_samples = m.latency_samples;
         slo_objective_ms = slo.objective_ms;
         slo_target = slo.target;
         slo_burn_1m = slo.burn_1m;
         slo_burn_1h = slo.burn_1h;
         audit =
           (match t.audit with
           | None -> Protocol.no_audit
           | Some audit -> Audit.stats audit);
       })

let dispatch t (request : Protocol.request) =
  match request with
  | Protocol.Ping -> Protocol.ok (Json.Obj [ ("pong", Json.Bool true) ])
  | Protocol.Upload { payload } -> (
      match Exp.Workload.of_string payload with
      | Error msg -> Protocol.error (Printf.sprintf "bad workload: %s" msg)
      | Ok w ->
          let digest = Store.add t.store w in
          Protocol.ok
            (Protocol.upload_reply_to_json
               {
                 Protocol.digest;
                 apps = Array.to_list (Exp.Workload.names w);
                 procs = w.procs;
               }))
  | Protocol.Estimate { digest; usecase; estimator } ->
      handle_estimate t ~digest ~usecase ~estimator
  | Protocol.Explain { digest; usecase; estimator } ->
      handle_explain t ~digest ~usecase ~estimator
  | Protocol.Admit { session; digest; app; min_throughput; confidence; margin_method }
    ->
      handle_admit t ~session ~digest ~app ~min_throughput ~confidence
        ~margin_method
  | Protocol.Release { session; app } -> handle_release t ~session ~app
  | Protocol.Cache_put { digest; mask; estimator; rows } ->
      handle_cache_put t ~digest ~mask ~estimator ~rows
  | Protocol.Stats -> handle_stats t
  | Protocol.Metrics ->
      ignore (refresh_slo_gauges t);
      Protocol.ok
        (Protocol.metrics_reply_to_json
           { Protocol.prometheus = Obs.Prometheus.expose t.registry })
  | Protocol.Shutdown ->
      Atomic.set t.stop_requested true;
      Protocol.ok (Json.Obj [ ("stopping", Json.Bool true) ])

(* The names requests are counted under, by command index; "invalid" is a
   frame that did not decode to a request. *)
let commands =
  [| "invalid"; "ping"; "upload"; "estimate"; "explain"; "admit"; "release";
     "cache-put"; "stats"; "metrics"; "shutdown" |]

let span_names = Array.map (fun cmd -> "serve." ^ cmd) commands
let invalid_cmd = 0

let cmd_index = function
  | Protocol.Ping -> 1
  | Protocol.Upload _ -> 2
  | Protocol.Estimate _ -> 3
  | Protocol.Explain _ -> 4
  | Protocol.Admit _ -> 5
  | Protocol.Release _ -> 6
  | Protocol.Cache_put _ -> 7
  | Protocol.Stats -> 8
  | Protocol.Metrics -> 9
  | Protocol.Shutdown -> 10

(* A command's request series, registered on its first request — so the
   exposition lists no zero-valued series for commands never seen — and
   then reused, since the get-or-create [v] validates and sorts the labels
   under the registry mutex on every call.  Two workers racing on a first
   request get the same series back from the registry. *)
let cmd_series t i =
  match Atomic.get t.cmd_series.(i) with
  | Some series -> series
  | None ->
      let labels = [ ("cmd", commands.(i)) ] in
      let series =
        {
          requests =
            Obs.Metric.Counter.v ~registry:t.registry
              ~help:"Requests served, by command." ~labels
              "contention_serve_requests_total";
          latency =
            Obs.Metric.Histogram.v ~registry:t.registry
              ~help:"Request latency in seconds, by command." ~labels
              "contention_serve_request_seconds";
        }
      in
      Atomic.set t.cmd_series.(i) (Some series);
      series

(* ------------------------------------------------------------------ *)
(* Connection handling                                                 *)

(* One journal line: everything needed to reconstruct what this request
   experienced and join it against a merged trace by trace id.  The upload
   payload is a whole workload file, so its digest is taken from the reply
   rather than the request. *)
let journal_entry t ~ctx ~cmd ~digest ~queue_depth ~reply ~latency_s =
  let outcome, payload =
    match Protocol.classify_reply reply with
    | Protocol.Reply_ok p -> ("ok", Some p)
    | Protocol.Reply_error _ -> ("error", None)
    | Protocol.Reply_shed _ -> ("shed", None)
  in
  let digest =
    match digest with
    | Some _ as d -> d
    | None ->
        Option.bind payload (fun p ->
            Option.bind (Json.member "digest" p) Json.get_str)
  in
  let opt name conv = function
    | None -> []
    | Some v -> [ (name, conv v) ]
  in
  Json.Obj
    ([ ("ts", Json.Num (Unix.gettimeofday ())) ]
    @ opt "trace"
        (fun (c : Obs.Span.ctx) -> Json.Str (Obs.Span.id_to_hex c.trace_id))
        ctx
    @ [ ("cmd", Json.Str cmd) ]
    @ opt "workload" (fun d -> Json.Str d) digest
    @ opt "shard" (fun s -> Json.Str s) t.config.shard
    @ [
        ("queue_depth", Json.Num (float_of_int queue_depth));
        ("outcome", Json.Str outcome);
      ]
    @ opt "cached"
        (fun b -> Json.Bool b)
        (Option.bind payload (fun p ->
             Option.bind (Json.member "cached" p) Json.get_bool))
    @ opt "confidence"
        (fun c -> Json.Num c)
        (Option.bind payload (fun p ->
             Option.bind (Json.member "margin" p) (fun m ->
                 Option.bind (Json.member "confidence" m) Json.get_num)))
    @ opt "verdict"
        (fun v -> Json.Str v)
        (Option.bind payload (fun p ->
             Option.bind (Json.member "verdict" p) Json.get_str))
    @ [ ("latency_us", Json.Num (latency_s *. 1e6)) ])

(* One request line through the full parse-and-dispatch path, returning the
   reply line.  Shared by the connection workers and exposed as the
   in-process fuzzing entry ({!Check.Wirefuzz}): whatever bytes come in, the
   result is a serialized reply envelope, never an exception. *)
let handle_line t line =
  let queue_depth = Chan.length t.conns in
  let t0 = Obs.Clock.now_ns () in
  let ci, ctx, digest, reply =
    match Json.of_string line with
    | Error msg ->
        (invalid_cmd, None, None, Protocol.error (Printf.sprintf "bad frame: %s" msg))
    | Ok json -> (
        match Protocol.request_of_json json with
        | Error msg ->
            ( invalid_cmd,
              None,
              None,
              Protocol.error (Printf.sprintf "bad request: %s" msg) )
        | Ok request -> (
            let ci = cmd_index request in
            (* The trace envelope re-establishes the caller's context here,
               so the serve span (and anything under it) links back to the
               client's span across the process boundary.  Malformed trace
               decorations read as None — they never fail the request. *)
            let ctx = Protocol.trace_of_request json in
            let digest =
              match request with
              | Protocol.Upload _ -> None
              | _ -> Option.bind (Json.member "workload" json) Json.get_str
            in
            let run () =
              Obs.Span.with_ ~name:span_names.(ci)
                ~args:(fun () -> [ ("cmd", commands.(ci)) ])
                (fun () -> dispatch t request)
            in
            let body () =
              match ctx with
              | None -> run ()
              | Some c -> Obs.Span.with_context c run
            in
            match body () with
            | reply -> (ci, ctx, digest, reply)
            | exception e ->
                (* A dispatch bug must never take the daemon down with
                   the connection. *)
                ( ci,
                  ctx,
                  digest,
                  Protocol.error
                    (Printf.sprintf "internal error: %s"
                       (Printexc.to_string e)) )))
  in
  let reply_line = Json.to_string reply in
  let latency_s = Obs.Clock.elapsed_s ~since:t0 in
  let cmd = commands.(ci) in
  Metrics.record t.metrics ~cmd ~latency_s;
  Slo.record t.slo ~latency_s;
  let series = cmd_series t ci in
  Obs.Metric.Counter.inc series.requests;
  Obs.Metric.Histogram.observe series.latency latency_s;
  (match t.journal with
  | Some j when Journal.sampled j ~ctx ->
      Journal.record j
        (journal_entry t ~ctx ~cmd ~digest ~queue_depth ~reply ~latency_s)
  | _ -> ());
  reply_line

let handle_connection t fd =
  Metrics.incr_connections t.metrics;
  let reader = Wire.reader ~max_line:t.config.max_line fd in
  let rec serve () =
    (* Keep answering until the peer hangs up; stop () unblocks us by
       shutting the read side down, which reads as EOF here. *)
    match Wire.read_frame reader with
    | Wire.Eof -> ()
    | Wire.Too_long ->
        Wire.write_line fd
          (Json.to_string (Protocol.error "request line too long"))
    | Wire.Line "" -> serve ()
    | Wire.Line line ->
        Wire.write_line fd (handle_line t line);
        serve ()
  in
  (match serve () with
  | () -> ()
  | exception Unix.Unix_error _ ->
      (* Peer vanished mid-reply (EPIPE, reset…): just drop the
         connection. *)
      ())

let worker t () =
  let rec loop () =
    match Chan.pop t.conns with
    | None -> ()
    | Some fd ->
        Obs.Metric.Gauge.set t.m_queue_depth
          (float_of_int (Chan.length t.conns));
        if register_active t fd then begin
          (match handle_connection t fd with
          | () -> ()
          | exception _ -> ());
          unregister_active t fd
        end;
        (try Unix.close fd with Unix.Unix_error _ -> ());
        loop ()
  in
  loop ()

(* Backpressure: the accept queue is bounded.  A connection arriving when
   [max_queue] connections are already waiting for a worker is answered with
   one shed frame and closed — the daemon's load-shedding verdict, preferred
   over unbounded queueing (latency collapse) or silent drops (client
   timeouts).  The write is a single small frame into a fresh socket buffer,
   so it cannot block the acceptor. *)
let shed_connection t fd ~queue_depth =
  Metrics.incr_shed t.metrics;
  Obs.Metric.Counter.inc t.m_shed;
  (* A shed request never met the latency objective: it burns budget. *)
  Slo.record_bad t.slo;
  (try Wire.write_line fd (Json.to_string (Protocol.shed ~queue_depth))
   with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let acceptor t listener () =
  let rec loop () =
    (* Re-checked after every wake-up: stop () nudges a blocked accept with
       a shutdown plus a self-connection, since merely closing the listener
       from another domain does not unblock accept on Linux. *)
    if Atomic.get t.stopping then ()
    else
      match Unix.accept ~cloexec:true listener with
      | fd, _ ->
          let depth = Chan.length t.conns in
          if t.config.max_queue > 0 && depth >= t.config.max_queue then
            shed_connection t fd ~queue_depth:depth
          else if Chan.push t.conns fd then
            Obs.Metric.Gauge.set t.m_queue_depth
              (float_of_int (Chan.length t.conns))
          else (try Unix.close fd with Unix.Unix_error _ -> ());
          loop ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | exception Unix.Unix_error (Unix.ECONNABORTED, _, _) -> loop ()
      | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
          (* Out of descriptors: back off instead of spinning or dying. *)
          Unix.sleepf 0.05;
          loop ()
      | exception Unix.Unix_error _ ->
          (* The listener was shut down or closed by stop: exit. *)
          ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)

let start ?on_hot ?(config = default_config) () =
  if config.cache_capacity < 1 then
    invalid_arg "Serve.Server.start: cache_capacity < 1";
  if config.port = None && config.unix_path = None then
    invalid_arg "Serve.Server.start: no TCP port and no Unix socket";
  (* A worker writing to a hung-up client must get EPIPE, not a fatal
     signal. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let tcp =
    Option.map
      (fun port ->
        let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
        (try
           Unix.setsockopt fd Unix.SO_REUSEADDR true;
           Unix.bind fd
             (Unix.ADDR_INET (Unix.inet_addr_of_string config.host, port));
           Unix.listen fd 64
         with e ->
           (try Unix.close fd with Unix.Unix_error _ -> ());
           raise e);
        let bound =
          match Unix.getsockname fd with
          | Unix.ADDR_INET (_, p) -> p
          | Unix.ADDR_UNIX _ -> port
        in
        (fd, bound))
      config.port
  in
  let unix_listener =
    Option.map
      (fun path ->
        if Sys.file_exists path then Sys.remove path;
        let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        (try
           Unix.bind fd (Unix.ADDR_UNIX path);
           Unix.listen fd 64
         with e ->
           (try Unix.close fd with Unix.Unix_error _ -> ());
           raise e);
        fd)
      config.unix_path
  in
  let listeners =
    (match tcp with Some (fd, _) -> [ fd ] | None -> [])
    @ (match unix_listener with Some fd -> [ fd ] | None -> [])
  in
  let jobs =
    match config.jobs with
    | Some j when j < 1 -> invalid_arg "Serve.Server.start: jobs < 1"
    | Some j -> j
    | None -> Exp.Pool.default_jobs ()
  in
  (* Each server owns its registry: two servers in one process (the tests
     start several) must not see each other's series. *)
  let registry = Obs.Metric.create_registry () in
  let m_active =
    Obs.Metric.Gauge.v ~registry
      ~help:"Connections being served right now."
      "contention_serve_active_connections"
  in
  let m_queue_depth =
    Obs.Metric.Gauge.v ~registry
      ~help:"Accepted connections waiting for a worker domain."
      "contention_serve_queue_depth"
  in
  let m_shed =
    Obs.Metric.Counter.v ~registry
      ~help:"Connections refused with a shed verdict (accept queue full)."
      "contention_serve_shed_total"
  in
  let m_cache_hits =
    Obs.Metric.Counter.v ~registry
      ~help:"Estimate-cache lookups answered from the cache."
      "contention_serve_cache_hits_total"
  in
  let m_cache_misses =
    Obs.Metric.Counter.v ~registry
      ~help:"Estimate-cache lookups that ran the analysis."
      "contention_serve_cache_misses_total"
  in
  let m_burn_1m =
    Obs.Metric.Gauge.v ~registry
      ~help:"SLO error-budget burn rate over the trailing minute."
      "contention_serve_slo_burn_1m"
  in
  let m_burn_1h =
    Obs.Metric.Gauge.v ~registry
      ~help:"SLO error-budget burn rate over the trailing hour."
      "contention_serve_slo_burn_1h"
  in
  Obs.Metric.Gauge.set
    (Obs.Metric.Gauge.v ~registry
       ~help:"Latency objective requests are judged by, in milliseconds."
       "contention_serve_slo_objective_ms")
    config.slo_objective_ms;
  Obs.Metric.Gauge.set
    (Obs.Metric.Gauge.v ~registry
       ~help:"Worker domains — the pool's capacity."
       "contention_serve_workers")
    (float_of_int jobs);
  let journal =
    Option.map
      (Journal.create ~sample_every:config.journal_sample
         ~max_bytes:config.journal_max_bytes)
      config.journal_path
  in
  let audit =
    if config.audit_sample <= 0 then None
    else
      Some
        (Audit.create
           ~config:
             {
               Audit.default_config with
               Audit.sample_every = config.audit_sample;
               horizon = config.audit_horizon;
               drift_delta = config.audit_drift_delta;
               drift_lambda = config.audit_drift_lambda;
             }
           ~registry ?journal ?shard:config.shard ())
  in
  let t =
    {
      config;
      store = Store.create ();
      cache = Lru.create ~capacity:config.cache_capacity;
      metrics = Metrics.create ();
      workers = jobs;
      registry;
      m_active;
      m_queue_depth;
      m_shed;
      m_burn_1m;
      m_burn_1h;
      slo =
        Slo.create ~objective_ms:config.slo_objective_ms
          ~target:config.slo_target ();
      journal;
      audit;
      m_cache_hits;
      m_cache_misses;
      hot = Hashtbl.create 8;
      hot_mutex = Mutex.create ();
      on_hot;
      sessions = Hashtbl.create 8;
      sessions_mutex = Mutex.create ();
      prepared = Hashtbl.create 8;
      prepared_mutex = Mutex.create ();
      conns = Chan.create ();
      listeners;
      bound_tcp_port = Option.map snd tcp;
      active = Hashtbl.create 16;
      active_mutex = Mutex.create ();
      stop_requested = Atomic.make false;
      stopping = Atomic.make false;
      stopped = Atomic.make false;
      domains = [];
      cmd_series = Array.map (fun _ -> Atomic.make None) commands;
    }
  in
  let workers = List.init jobs (fun _ -> Domain.spawn (worker t)) in
  let acceptors = List.map (fun l -> Domain.spawn (acceptor t l)) listeners in
  t.domains <- workers @ acceptors;
  t

let stop t =
  if not (Atomic.exchange t.stopped true) then begin
    (* Order matters: flag first (new connections are refused at
       registration), then listeners (acceptors exit), then the queue (idle
       workers exit after draining), then unblock workers parked on idle
       connections. *)
    Atomic.set t.stop_requested true;
    Mutex.lock t.active_mutex;
    Atomic.set t.stopping true;
    Hashtbl.iter
      (fun fd () ->
        try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE
        with Unix.Unix_error _ -> ())
      t.active;
    Mutex.unlock t.active_mutex;
    (* Closing a listening socket from this domain does not unblock an
       accept parked on it in an acceptor domain (Linux keeps the accept
       waiting on the old file description).  Shut the listeners down —
       which does wake a blocked TCP accept — and additionally poke each
       address with a throwaway connection in case shutdown is a no-op for
       the socket family.  The acceptors re-check [t.stopping] on every
       wake-up, so any nudge suffices. *)
    List.iter
      (fun l -> try Unix.shutdown l Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      t.listeners;
    let nudge addr =
      match Unix.socket ~cloexec:true (Unix.domain_of_sockaddr addr)
              Unix.SOCK_STREAM 0 with
      | fd ->
          (try Unix.connect fd addr with Unix.Unix_error _ -> ());
          (try Unix.close fd with Unix.Unix_error _ -> ())
      | exception Unix.Unix_error _ -> ()
    in
    Option.iter
      (fun port ->
        nudge (Unix.ADDR_INET (Unix.inet_addr_of_string t.config.host, port)))
      t.bound_tcp_port;
    Option.iter (fun path -> nudge (Unix.ADDR_UNIX path)) t.config.unix_path;
    List.iter
      (fun l -> try Unix.close l with Unix.Unix_error _ -> ())
      t.listeners;
    Chan.close t.conns;
    List.iter Domain.join t.domains;
    t.domains <- [];
    (* Finish queued audit replays (they may still journal) before the
       journal closes under them. *)
    Option.iter Audit.stop t.audit;
    Option.iter Journal.close t.journal;
    match t.config.unix_path with
    | Some path when Sys.file_exists path -> (
        try Sys.remove path with Sys_error _ -> ())
    | _ -> ()
  end

let run_until_stopped ?(poll_interval = 0.1) ?(should_stop = fun () -> false) t =
  let rec loop () =
    if Atomic.get t.stop_requested || should_stop () then stop t
    else begin
      (try Unix.sleepf poll_interval
       with Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ()
