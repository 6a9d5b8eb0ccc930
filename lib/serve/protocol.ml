type estimate_row = {
  app : string;
  period : float;
  isolation_period : float;
  throughput : float;
}

type request =
  | Ping
  | Upload of { payload : string }
  | Estimate of {
      digest : string;
      usecase : string list option;
      estimator : Contention.Analysis.estimator;
    }
  | Admit of {
      session : string;
      digest : string;
      app : string;
      min_throughput : float;
      confidence : float option;
      margin_method : Contention.Margin.method_ option;
    }
  | Release of { session : string; app : string }
  | Cache_put of {
      digest : string;
      mask : int;
      estimator : string;
      rows : estimate_row list;
    }
      (** Peer-to-peer: install precomputed estimate rows into the receiving
          server's cache, keyed by [(digest, mask, estimator)].  Sent by the
          cluster router to replicate hot entries. *)
  | Explain of {
      digest : string;
      usecase : string list option;
      estimator : Contention.Analysis.estimator;
    }
  | Stats
  | Metrics
  | Shutdown

let default_session = "default"

let estimator_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "worst-case" | "wc" -> Ok Contention.Analysis.Worst_case
  | "second-order" | "o2" -> Ok (Contention.Analysis.Order 2)
  | "fourth-order" | "o4" -> Ok (Contention.Analysis.Order 4)
  | "composability" | "comp" -> Ok Contention.Analysis.Composability
  | "exact" -> Ok Contention.Analysis.Exact
  | s -> (
      let order m =
        if m >= 2 then Ok (Contention.Analysis.Order m)
        else Error (Printf.sprintf "estimator order must be >= 2, got %d" m)
      in
      match int_of_string_opt s with
      | Some m -> order m
      | None -> (
          (* The canonical name of Order m for m outside {2, 4}. *)
          match String.index_opt s '-' with
          | Some i
            when String.sub s 0 i = "order" -> (
              match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
              | Some m -> order m
              | None -> Error (Printf.sprintf "unknown estimator %S" s))
          | _ -> Error (Printf.sprintf "unknown estimator %S" s)))

let estimator_to_string = Contention.Analysis.estimator_name

(* ------------------------------------------------------------------ *)
(* Field helpers                                                       *)

let ( let* ) = Result.bind

let field name conv json =
  match Json.member name json with
  | None -> Error (Printf.sprintf "missing field %S" name)
  | Some v -> (
      match conv v with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "field %S has the wrong type" name))

let opt_field name conv json =
  match Json.member name json with
  | None | Some Json.Null -> Ok None
  | Some v -> (
      match conv v with
      | Some x -> Ok (Some x)
      | None -> Error (Printf.sprintf "field %S has the wrong type" name))

let str_list json =
  match Json.get_arr json with
  | None -> None
  | Some xs ->
      List.fold_right
        (fun x acc ->
          match (Json.get_str x, acc) with
          | Some s, Some rest -> Some (s :: rest)
          | _ -> None)
        xs (Some [])

let estimate_row_to_json r =
  Json.Obj
    [
      ("app", Json.Str r.app);
      ("period", Json.Num r.period);
      ("isolation_period", Json.Num r.isolation_period);
      ("throughput", Json.Num r.throughput);
    ]

let estimate_row_of_json json =
  let* app = field "app" Json.get_str json in
  let* period = field "period" Json.get_num json in
  let* isolation_period = field "isolation_period" Json.get_num json in
  let* throughput = field "throughput" Json.get_num json in
  Ok { app; period; isolation_period; throughput }

let rows_of_json rows_json =
  List.fold_right
    (fun r acc ->
      let* acc = acc in
      let* row = estimate_row_of_json r in
      Ok (row :: acc))
    rows_json (Ok [])

(* ------------------------------------------------------------------ *)
(* Trace context envelope                                              *)

(* The optional "trace" field of a request envelope.  Serialization is
   exact; parsing is deliberately lenient and total: a request is NEVER
   rejected because of its trace field.  A malformed or unparseable trace
   object simply reads as "no context", and unknown members inside it are
   ignored — peers of different versions must interoperate, and a fuzzer
   must not be able to fail a valid command via its trace decoration. *)

let trace_to_json (c : Obs.Span.ctx) =
  Json.Obj
    [
      ("id", Json.Str (Obs.Span.id_to_hex c.trace_id));
      ("parent", Json.Str (Obs.Span.id_to_hex c.parent_span));
      ("sampled", Json.Bool c.sampled);
    ]

let trace_of_request json : Obs.Span.ctx option =
  match Json.member "trace" json with
  | None -> None
  | Some t -> (
      match Option.bind (Json.member "id" t) Json.get_str with
      | None -> None
      | Some id_hex -> (
          match Obs.Span.id_of_hex id_hex with
          | None | Some 0L -> None
          | Some trace_id ->
              let parent_span =
                match
                  Option.bind
                    (Option.bind (Json.member "parent" t) Json.get_str)
                    Obs.Span.id_of_hex
                with
                | Some p -> p
                | None -> 0L
              in
              let sampled =
                match Option.bind (Json.member "sampled" t) Json.get_bool with
                | Some b -> b
                | None -> true
              in
              Some { Obs.Span.trace_id; parent_span; sampled }))

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)

let base_request_to_json = function
  | Ping -> Json.Obj [ ("cmd", Json.Str "ping") ]
  | Upload { payload } ->
      Json.Obj [ ("cmd", Json.Str "upload"); ("workload", Json.Str payload) ]
  | Estimate { digest; usecase; estimator } ->
      Json.Obj
        ([ ("cmd", Json.Str "estimate"); ("workload", Json.Str digest) ]
        @ (match usecase with
          | None -> []
          | Some apps ->
              [ ("usecase", Json.Arr (List.map (fun a -> Json.Str a) apps)) ])
        @ [ ("estimator", Json.Str (estimator_to_string estimator)) ])
  | Admit { session; digest; app; min_throughput; confidence; margin_method } ->
      Json.Obj
        ([
           ("cmd", Json.Str "admit");
           ("session", Json.Str session);
           ("workload", Json.Str digest);
           ("app", Json.Str app);
           ("min_throughput", Json.Num min_throughput);
         ]
        @ (match confidence with
          | None -> []
          | Some c -> [ ("confidence", Json.Num c) ])
        @
        match margin_method with
        | None -> []
        | Some m ->
            [ ("margin_method", Json.Str (Contention.Margin.method_to_string m)) ])
  | Release { session; app } ->
      Json.Obj
        [
          ("cmd", Json.Str "release");
          ("session", Json.Str session);
          ("app", Json.Str app);
        ]
  | Cache_put { digest; mask; estimator; rows } ->
      Json.Obj
        [
          ("cmd", Json.Str "cache-put");
          ("workload", Json.Str digest);
          ("mask", Json.Num (float_of_int mask));
          ("estimator", Json.Str estimator);
          ("results", Json.Arr (List.map estimate_row_to_json rows));
        ]
  | Explain { digest; usecase; estimator } ->
      Json.Obj
        ([ ("cmd", Json.Str "explain"); ("workload", Json.Str digest) ]
        @ (match usecase with
          | None -> []
          | Some apps ->
              [ ("usecase", Json.Arr (List.map (fun a -> Json.Str a) apps)) ])
        @ [ ("estimator", Json.Str (estimator_to_string estimator)) ])
  | Stats -> Json.Obj [ ("cmd", Json.Str "stats") ]
  | Metrics -> Json.Obj [ ("cmd", Json.Str "metrics") ]
  | Shutdown -> Json.Obj [ ("cmd", Json.Str "shutdown") ]

let request_to_json ?trace req =
  match (trace, base_request_to_json req) with
  | Some c, Json.Obj fields -> Json.Obj (fields @ [ ("trace", trace_to_json c) ])
  | _, json -> json

let request_of_json json =
  match Json.get_obj json with
  | None -> Error "request must be a JSON object"
  | Some _ -> (
      let* cmd = field "cmd" Json.get_str json in
      match cmd with
      | "ping" -> Ok Ping
      | "upload" ->
          let* payload = field "workload" Json.get_str json in
          Ok (Upload { payload })
      | "estimate" | "explain" ->
          let* digest = field "workload" Json.get_str json in
          let* usecase = opt_field "usecase" str_list json in
          let* name =
            match Json.member "estimator" json with
            | None | Some Json.Null -> Ok "second-order"
            | Some v -> (
                match Json.get_str v with
                | Some s -> Ok s
                | None -> Error "field \"estimator\" has the wrong type")
          in
          let* estimator = estimator_of_string name in
          if cmd = "explain" then Ok (Explain { digest; usecase; estimator })
          else Ok (Estimate { digest; usecase; estimator })
      | "admit" ->
          let* session =
            Result.map
              (Option.value ~default:default_session)
              (opt_field "session" Json.get_str json)
          in
          let* digest = field "workload" Json.get_str json in
          let* app = field "app" Json.get_str json in
          let* min_throughput = field "min_throughput" Json.get_num json in
          let* confidence = opt_field "confidence" Json.get_num json in
          let* confidence =
            match confidence with
            | None -> Ok None
            | Some c ->
                if Float.is_finite c && c > 0. && c < 1. then Ok (Some c)
                else Error "confidence must be in (0,1)"
          in
          let* margin_method =
            match Json.member "margin_method" json with
            | None | Some Json.Null -> Ok None
            | Some v -> (
                match Json.get_str v with
                | None -> Error "field \"margin_method\" has the wrong type"
                | Some s ->
                    Result.map Option.some
                      (Contention.Margin.method_of_string s))
          in
          if Float.is_finite min_throughput && min_throughput >= 0. then
            Ok
              (Admit
                 { session; digest; app; min_throughput; confidence; margin_method })
          else Error "min_throughput must be finite and non-negative"
      | "release" ->
          let* session =
            Result.map
              (Option.value ~default:default_session)
              (opt_field "session" Json.get_str json)
          in
          let* app = field "app" Json.get_str json in
          Ok (Release { session; app })
      | "cache-put" ->
          let* digest = field "workload" Json.get_str json in
          let* mask = field "mask" Json.get_int json in
          let* estimator = field "estimator" Json.get_str json in
          let* rows_json = field "results" Json.get_arr json in
          let* rows = rows_of_json rows_json in
          if mask < 0 then Error "mask must be non-negative"
          else Ok (Cache_put { digest; mask; estimator; rows })
      | "stats" -> Ok Stats
      | "metrics" -> Ok Metrics
      | "shutdown" -> Ok Shutdown
      | cmd -> Error (Printf.sprintf "unknown command %S" cmd))

(* ------------------------------------------------------------------ *)
(* Replies                                                             *)

type upload_reply = { digest : string; apps : string list; procs : int }

type estimate_reply = {
  cached : bool;
  estimator : string;
  rows : estimate_row list;
}

type verdict =
  | Admitted of { throughput : float; margin : Contention.Margin.t option }
  | Rejected_candidate of { estimated : float; required : float }
  | Rejected_victim of { victim : string; estimated : float; required : float }

type audit_stats = {
  audit_sample : int;
  audit_submitted : int;
  audit_completed : int;
  audit_dropped : int;
  audit_failed : int;
  audit_mean_err : float;
  audit_max_abs_err : float;
  audit_alarms : int;
  audit_drifting : string list;
  audit_margin_checked : int;
  audit_margin_missed : int;
}

let no_audit =
  {
    audit_sample = 0;
    audit_submitted = 0;
    audit_completed = 0;
    audit_dropped = 0;
    audit_failed = 0;
    audit_mean_err = 0.;
    audit_max_abs_err = 0.;
    audit_alarms = 0;
    audit_drifting = [];
    audit_margin_checked = 0;
    audit_margin_missed = 0;
  }

type stats_reply = {
  uptime_s : float;
  connections : int;
  requests : (string * int) list;
  requests_total : int;
  workloads : int;
  sessions : int;
  cache_entries : int;
  cache_capacity : int;
  cache_hits : int;
  cache_misses : int;
  active_connections : int;
  workers : int;
  queue_capacity : int;
  shed : int;
  admitted : int;
  rejected_candidate : int;
  rejected_victim : int;
  released : int;
  margins_served : int;
  margin_mean_rel_width : float;
  latency_mean_us : float;
  latency_p50_us : float;
  latency_p90_us : float;
  latency_p99_us : float;
  latency_max_us : float;
  latency_samples : int;
  slo_objective_ms : float;
  slo_target : float;
  slo_burn_1m : float;
  slo_burn_1h : float;
  audit : audit_stats;
}

let cache_hit_rate s =
  let lookups = s.cache_hits + s.cache_misses in
  if lookups = 0 then 0. else float_of_int s.cache_hits /. float_of_int lookups

let pool_occupancy s =
  if s.workers = 0 then 0.
  else float_of_int s.active_connections /. float_of_int s.workers

type metrics_reply = { prometheus : string }

let metrics_reply_to_json r = Json.Obj [ ("prometheus", Json.Str r.prometheus) ]

let metrics_reply_of_json json =
  let* prometheus = field "prometheus" Json.get_str json in
  Ok { prometheus }

let upload_reply_to_json r =
  Json.Obj
    [
      ("digest", Json.Str r.digest);
      ("apps", Json.Arr (List.map (fun a -> Json.Str a) r.apps));
      ("procs", Json.Num (float_of_int r.procs));
    ]

let upload_reply_of_json json =
  let* digest = field "digest" Json.get_str json in
  let* apps = field "apps" str_list json in
  let* procs = field "procs" Json.get_int json in
  Ok { digest; apps; procs }

let estimate_reply_json ~cached ~estimator results =
  Json.Obj
    [
      ("cached", Json.Bool cached);
      ("estimator", Json.Str estimator);
      ("results", results);
    ]

let estimate_results rows = Json.Arr (List.map estimate_row_to_json rows)

let estimate_reply_to_json r =
  estimate_reply_json ~cached:r.cached ~estimator:r.estimator
    (estimate_results r.rows)

let encode_results rows = Json.encode (estimate_results rows)

let encoded_estimate_reply_to_json ~cached ~estimator results =
  estimate_reply_json ~cached ~estimator (Json.Encoded results)

let estimate_reply_of_json json =
  let* cached = field "cached" Json.get_bool json in
  let* estimator = field "estimator" Json.get_str json in
  let* rows_json = field "results" Json.get_arr json in
  let* rows = rows_of_json rows_json in
  Ok { cached; estimator; rows }

(* The provenance record's JSON lives in [Contention.Explain] (core cannot
   see the serve layer's codec); the two ASTs are structurally identical, so
   the bridge is a plain structural copy in each direction. *)
let rec json_of_explain : Contention.Explain.json -> Json.t = function
  | Contention.Explain.Null -> Json.Null
  | Contention.Explain.Bool b -> Json.Bool b
  | Contention.Explain.Num n -> Json.Num n
  | Contention.Explain.Str s -> Json.Str s
  | Contention.Explain.Arr xs -> Json.Arr (List.map json_of_explain xs)
  | Contention.Explain.Obj fields ->
      Json.Obj (List.map (fun (k, v) -> (k, json_of_explain v)) fields)

let rec explain_json_of_json : Json.t -> Contention.Explain.json = function
  | Json.Null -> Contention.Explain.Null
  | Json.Bool b -> Contention.Explain.Bool b
  | Json.Num n -> Contention.Explain.Num n
  | Json.Str s -> Contention.Explain.Str s
  | Json.Arr xs -> Contention.Explain.Arr (List.map explain_json_of_json xs)
  | Json.Obj fields ->
      Contention.Explain.Obj
        (List.map (fun (k, v) -> (k, explain_json_of_json v)) fields)
  | Json.Encoded _ ->
      (* Only a server builds pre-encoded nodes, and only for estimate
         replies; a parsed document never holds one. *)
      invalid_arg "Serve.Protocol.explain_json_of_json: pre-encoded value"

let explain_reply_to_json (e : Contention.Explain.t) =
  json_of_explain (Contention.Explain.to_json e)

let explain_reply_of_json json =
  Contention.Explain.of_json (explain_json_of_json json)

let margin_to_json (m : Contention.Margin.t) =
  Json.Obj
    [
      ("confidence", Json.Num m.confidence);
      ("method", Json.Str (Contention.Margin.method_to_string m.method_));
      ("period", Json.Num m.period);
      ("lo", Json.Num m.lo);
      ("hi", Json.Num m.hi);
      ("mean", Json.Num m.mean);
      ("std", Json.Num m.std);
      ("samples", Json.Num (float_of_int m.samples));
    ]

let margin_of_json json =
  let* confidence = field "confidence" Json.get_num json in
  let* method_name = field "method" Json.get_str json in
  let* method_ = Contention.Margin.method_of_string method_name in
  let* period = field "period" Json.get_num json in
  let* lo = field "lo" Json.get_num json in
  let* hi = field "hi" Json.get_num json in
  let* mean = field "mean" Json.get_num json in
  let* std = field "std" Json.get_num json in
  let* samples = field "samples" Json.get_int json in
  let m =
    { Contention.Margin.confidence; method_; period; lo; hi; mean; std; samples }
  in
  let* () = Contention.Margin.validate m in
  Ok m

let verdict_to_json = function
  | Admitted { throughput; margin } ->
      Json.Obj
        ([ ("verdict", Json.Str "admitted"); ("throughput", Json.Num throughput) ]
        @
        match margin with
        | None -> []
        | Some m -> [ ("margin", margin_to_json m) ])
  | Rejected_candidate { estimated; required } ->
      Json.Obj
        [
          ("verdict", Json.Str "rejected-candidate");
          ("estimated", Json.Num estimated);
          ("required", Json.Num required);
        ]
  | Rejected_victim { victim; estimated; required } ->
      Json.Obj
        [
          ("verdict", Json.Str "rejected-victim");
          ("victim", Json.Str victim);
          ("estimated", Json.Num estimated);
          ("required", Json.Num required);
        ]

let verdict_of_json json =
  let* kind = field "verdict" Json.get_str json in
  match kind with
  | "admitted" ->
      let* throughput = field "throughput" Json.get_num json in
      let* margin =
        match Json.member "margin" json with
        | None | Some Json.Null -> Ok None
        | Some m -> Result.map Option.some (margin_of_json m)
      in
      Ok (Admitted { throughput; margin })
  | "rejected-candidate" ->
      let* estimated = field "estimated" Json.get_num json in
      let* required = field "required" Json.get_num json in
      Ok (Rejected_candidate { estimated; required })
  | "rejected-victim" ->
      let* victim = field "victim" Json.get_str json in
      let* estimated = field "estimated" Json.get_num json in
      let* required = field "required" Json.get_num json in
      Ok (Rejected_victim { victim; estimated; required })
  | k -> Error (Printf.sprintf "unknown verdict %S" k)

let stats_reply_to_json s =
  Json.Obj
    [
      ("uptime_s", Json.Num s.uptime_s);
      ("connections", Json.Num (float_of_int s.connections));
      ( "requests",
        Json.Obj
          (("total", Json.Num (float_of_int s.requests_total))
          :: List.map
               (fun (cmd, n) -> (cmd, Json.Num (float_of_int n)))
               s.requests) );
      ("workloads", Json.Num (float_of_int s.workloads));
      ("sessions", Json.Num (float_of_int s.sessions));
      ( "cache",
        Json.Obj
          [
            ("entries", Json.Num (float_of_int s.cache_entries));
            ("capacity", Json.Num (float_of_int s.cache_capacity));
            ("hits", Json.Num (float_of_int s.cache_hits));
            ("misses", Json.Num (float_of_int s.cache_misses));
          ] );
      ( "pool",
        Json.Obj
          [
            ("active_connections", Json.Num (float_of_int s.active_connections));
            ("workers", Json.Num (float_of_int s.workers));
            ("queue_capacity", Json.Num (float_of_int s.queue_capacity));
            ("shed", Json.Num (float_of_int s.shed));
          ] );
      ( "admission",
        Json.Obj
          [
            ("admitted", Json.Num (float_of_int s.admitted));
            ("rejected_candidate", Json.Num (float_of_int s.rejected_candidate));
            ("rejected_victim", Json.Num (float_of_int s.rejected_victim));
            ("released", Json.Num (float_of_int s.released));
            ("margins", Json.Num (float_of_int s.margins_served));
            ("margin_mean_rel_width", Json.Num s.margin_mean_rel_width);
          ] );
      ( "latency_us",
        Json.Obj
          [
            ("mean", Json.Num s.latency_mean_us);
            ("p50", Json.Num s.latency_p50_us);
            ("p90", Json.Num s.latency_p90_us);
            ("p99", Json.Num s.latency_p99_us);
            ("max", Json.Num s.latency_max_us);
            ("samples", Json.Num (float_of_int s.latency_samples));
          ] );
      ( "slo",
        Json.Obj
          [
            ("objective_ms", Json.Num s.slo_objective_ms);
            ("target", Json.Num s.slo_target);
            ("burn_1m", Json.Num s.slo_burn_1m);
            ("burn_1h", Json.Num s.slo_burn_1h);
          ] );
      ( "audit",
        Json.Obj
          [
            ("sample", Json.Num (float_of_int s.audit.audit_sample));
            ("submitted", Json.Num (float_of_int s.audit.audit_submitted));
            ("completed", Json.Num (float_of_int s.audit.audit_completed));
            ("dropped", Json.Num (float_of_int s.audit.audit_dropped));
            ("failed", Json.Num (float_of_int s.audit.audit_failed));
            ("mean_err", Json.Num s.audit.audit_mean_err);
            ("max_abs_err", Json.Num s.audit.audit_max_abs_err);
            ("alarms", Json.Num (float_of_int s.audit.audit_alarms));
            ( "drifting",
              Json.Arr
                (List.map (fun e -> Json.Str e) s.audit.audit_drifting) );
            ( "margin_checked",
              Json.Num (float_of_int s.audit.audit_margin_checked) );
            ( "margin_missed",
              Json.Num (float_of_int s.audit.audit_margin_missed) );
          ] );
    ]

let stats_reply_of_json json =
  let* uptime_s = field "uptime_s" Json.get_num json in
  let* connections = field "connections" Json.get_int json in
  let* requests_obj = field "requests" Json.get_obj json in
  let* requests_total =
    field "total" Json.get_int (Json.Obj requests_obj)
  in
  let requests =
    List.filter_map
      (fun (k, v) ->
        if k = "total" then None
        else Option.map (fun n -> (k, n)) (Json.get_int v))
      requests_obj
  in
  let* workloads = field "workloads" Json.get_int json in
  let* sessions = field "sessions" Json.get_int json in
  let* cache = field "cache" (fun j -> Some j) json in
  let* cache_entries = field "entries" Json.get_int cache in
  let* cache_capacity = field "capacity" Json.get_int cache in
  let* cache_hits = field "hits" Json.get_int cache in
  let* cache_misses = field "misses" Json.get_int cache in
  let* pool = field "pool" (fun j -> Some j) json in
  let* active_connections = field "active_connections" Json.get_int pool in
  let* workers = field "workers" Json.get_int pool in
  let* queue_capacity = field "queue_capacity" Json.get_int pool in
  let* shed = field "shed" Json.get_int pool in
  let* admission = field "admission" (fun j -> Some j) json in
  let* admitted = field "admitted" Json.get_int admission in
  let* rejected_candidate = field "rejected_candidate" Json.get_int admission in
  let* rejected_victim = field "rejected_victim" Json.get_int admission in
  let* released = field "released" Json.get_int admission in
  (* Margin accounting is absent from pre-margin servers: default to zero so
     a new client can still read an old server's stats. *)
  let margins_served =
    Option.value ~default:0
      (Option.bind (Json.member "margins" admission) Json.get_int)
  in
  let margin_mean_rel_width =
    Option.value ~default:0.
      (Option.bind (Json.member "margin_mean_rel_width" admission) Json.get_num)
  in
  let* latency = field "latency_us" (fun j -> Some j) json in
  let* latency_mean_us = field "mean" Json.get_num latency in
  let* latency_p50_us = field "p50" Json.get_num latency in
  let* latency_p90_us = field "p90" Json.get_num latency in
  let* latency_p99_us = field "p99" Json.get_num latency in
  let* latency_max_us = field "max" Json.get_num latency in
  let* latency_samples = field "samples" Json.get_int latency in
  (* SLO block is absent from pre-SLO servers: default to zeros so a new
     client can still read an old server's stats. *)
  let slo_num name =
    match Json.member "slo" json with
    | None -> 0.
    | Some slo -> (
        match Option.bind (Json.member name slo) Json.get_num with
        | None -> 0.
        | Some v -> v)
  in
  let slo_objective_ms = slo_num "objective_ms" in
  let slo_target = slo_num "target" in
  let slo_burn_1m = slo_num "burn_1m" in
  let slo_burn_1h = slo_num "burn_1h" in
  (* Like the SLO block, the audit block is absent from pre-audit servers
     (and from servers running with auditing off the section is all-zero):
     default everything so old and new peers interoperate. *)
  let audit =
    match Json.member "audit" json with
    | None -> no_audit
    | Some a ->
        let num name =
          Option.value ~default:0.
            (Option.bind (Json.member name a) Json.get_num)
        in
        let int name = int_of_float (num name) in
        {
          audit_sample = int "sample";
          audit_submitted = int "submitted";
          audit_completed = int "completed";
          audit_dropped = int "dropped";
          audit_failed = int "failed";
          audit_mean_err = num "mean_err";
          audit_max_abs_err = num "max_abs_err";
          audit_alarms = int "alarms";
          audit_drifting =
            Option.value ~default:[]
              (Option.bind (Json.member "drifting" a) str_list);
          audit_margin_checked = int "margin_checked";
          audit_margin_missed = int "margin_missed";
        }
  in
  Ok
    {
      uptime_s;
      connections;
      requests;
      requests_total;
      workloads;
      sessions;
      cache_entries;
      cache_capacity;
      cache_hits;
      cache_misses;
      active_connections;
      workers;
      queue_capacity;
      shed;
      admitted;
      rejected_candidate;
      rejected_victim;
      released;
      margins_served;
      margin_mean_rel_width;
      latency_mean_us;
      latency_p50_us;
      latency_p90_us;
      latency_p99_us;
      latency_max_us;
      latency_samples;
      slo_objective_ms;
      slo_target;
      slo_burn_1m;
      slo_burn_1h;
      audit;
    }

(* ------------------------------------------------------------------ *)
(* Envelope                                                            *)

let ok payload = Json.Obj [ ("ok", payload) ]
let error msg = Json.Obj [ ("error", Json.Str msg) ]

let shed ~queue_depth =
  Json.Obj
    [ ("shed", Json.Obj [ ("queue_depth", Json.Num (float_of_int queue_depth)) ]) ]

type reply =
  | Reply_ok of Json.t
  | Reply_error of string
  | Reply_shed of { queue_depth : int }

let classify_reply json =
  match Json.member "ok" json with
  | Some payload -> Reply_ok payload
  | None -> (
      match Option.bind (Json.member "error" json) Json.get_str with
      | Some msg -> Reply_error msg
      | None -> (
          match Json.member "shed" json with
          | Some payload ->
              let queue_depth =
                Option.value ~default:0
                  (Option.bind (Json.member "queue_depth" payload) Json.get_int)
              in
              Reply_shed { queue_depth }
          | None ->
              Reply_error "malformed reply: neither \"ok\", \"error\" nor \"shed\""))

let unwrap_reply json =
  match classify_reply json with
  | Reply_ok payload -> Ok payload
  | Reply_error msg -> Error msg
  | Reply_shed { queue_depth } ->
      Error
        (Printf.sprintf "shed: server overloaded (queue depth %d)" queue_depth)
