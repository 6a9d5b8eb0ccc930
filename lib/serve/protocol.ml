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
let estimator_of_string = Contention.Analysis.estimator_of_string
let estimator_to_string = Contention.Analysis.estimator_name

(* ------------------------------------------------------------------ *)
(* Field codecs                                                        *)

(* Every shape below is one {!Codec} declaration: its constructor, its
   destructor and its fields in wire order, which is also the order the
   decoder checks them in. *)

open Codec

let estimator = map estimator_of_string estimator_to_string string

let margin_method =
  map Contention.Margin.method_of_string Contention.Margin.method_to_string string

let estimate_row =
  obj
    (fun app period isolation_period throughput ->
      { app; period; isolation_period; throughput })
    (fun r k -> k r.app r.period r.isolation_period r.throughput)
    (req "app" string ++ req "period" num ++ req "isolation_period" num
   ++ req "throughput" num)

let rows = list estimate_row

(* ------------------------------------------------------------------ *)
(* Trace context envelope                                              *)

(* The optional "trace" field of a request envelope.  Serialization is
   exact; parsing is deliberately lenient and total: a request is NEVER
   rejected because of its trace field.  A malformed or unparseable trace
   object simply reads as "no context", and unknown members inside it are
   ignored — peers of different versions must interoperate, and a fuzzer
   must not be able to fail a valid command via its trace decoration. *)

let span_id =
  map
    (fun s -> Option.to_result ~none:"bad span id" (Obs.Span.id_of_hex s))
    Obs.Span.id_to_hex string

let trace_ctx =
  obj
    ~check:(fun (c : Obs.Span.ctx) ->
      if c.trace_id = 0L then Error "zero trace id" else Ok ())
    (fun trace_id parent_span sampled -> { Obs.Span.trace_id; parent_span; sampled })
    (fun c k -> k c.trace_id c.parent_span c.sampled)
    (req "id" span_id ++ lenient "parent" 0L span_id ++ lenient "sampled" true bool)

let trace_of_request json =
  Option.bind (Json.member "trace" json) (fun t -> Result.to_option (of_json trace_ctx t))

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)

(* The fields an estimate and an explain request share. *)
let query =
  req "workload" string ++ opt "usecase" (list string)
  ++ dft "estimator" (Contention.Analysis.Order 2) estimator

let confidence =
  map
    (fun c ->
      if Float.is_finite c && c > 0. && c < 1. then Ok c
      else Error "confidence must be in (0,1)")
    Fun.id num

(* The per-command table: wire name, fields, and the index a server counts
   the command under (its position). *)
let commands =
  [
    case0 "ping" Ping;
    case "upload"
      (fun payload -> Upload { payload })
      (function Upload { payload } -> Some (fun k -> k payload) | _ -> None)
      (req "workload" string);
    case "estimate"
      (fun digest usecase estimator -> Estimate { digest; usecase; estimator })
      (function
        | Estimate { digest; usecase; estimator } ->
            Some (fun k -> k digest usecase estimator)
        | _ -> None)
      query;
    case "explain"
      (fun digest usecase estimator -> Explain { digest; usecase; estimator })
      (function
        | Explain { digest; usecase; estimator } ->
            Some (fun k -> k digest usecase estimator)
        | _ -> None)
      query;
    case "admit"
      ~check:(function
        | Admit { min_throughput = m; _ } when not (Float.is_finite m && m >= 0.) ->
            Error "min_throughput must be finite and non-negative"
        | _ -> Ok ())
      (fun session digest app min_throughput confidence margin_method ->
        Admit { session; digest; app; min_throughput; confidence; margin_method })
      (function
        | Admit { session; digest; app; min_throughput; confidence; margin_method } ->
            Some (fun k -> k session digest app min_throughput confidence margin_method)
        | _ -> None)
      (dft "session" default_session string ++ req "workload" string
     ++ req "app" string ++ req "min_throughput" num
     ++ opt "confidence" confidence ++ opt "margin_method" margin_method);
    case "release"
      (fun session app -> Release { session; app })
      (function Release { session; app } -> Some (fun k -> k session app) | _ -> None)
      (dft "session" default_session string ++ req "app" string);
    case "cache-put"
      ~check:(function
        | Cache_put { mask; _ } when mask < 0 -> Error "mask must be non-negative"
        | _ -> Ok ())
      (fun digest mask estimator rows -> Cache_put { digest; mask; estimator; rows })
      (function
        | Cache_put { digest; mask; estimator; rows } ->
            Some (fun k -> k digest mask estimator rows)
        | _ -> None)
      (req "workload" string ++ req "mask" int ++ req "estimator" string
     ++ req "results" rows);
    case0 "stats" Stats;
    case0 "metrics" Metrics;
    case0 "shutdown" Shutdown;
  ]

let request = variant ~key:"cmd" ~what:"command" commands

let command_index r = Option.get (List.find_index (fun c -> matches c r) commands)

let request_to_json ?trace r =
  match (trace, to_json request r) with
  | Some c, Json.Obj fields -> Json.Obj (fields @ [ ("trace", to_json trace_ctx c) ])
  | _, json -> json

let request_of_json = function
  | Json.Obj _ as json -> of_json request json
  | _ -> Error "request must be a JSON object"

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

let metrics_reply =
  obj (fun prometheus -> { prometheus }) (fun r k -> k r.prometheus)
    (req "prometheus" string)

let upload_reply =
  obj
    (fun digest apps procs -> { digest; apps; procs })
    (fun r k -> k r.digest r.apps r.procs)
    (req "digest" string ++ req "apps" (list string) ++ req "procs" int)

let estimate_fields results =
  req "cached" bool ++ req "estimator" string ++ req "results" results

let estimate_reply =
  obj
    (fun cached estimator rows -> { cached; estimator; rows })
    (fun r k -> k r.cached r.estimator r.rows)
    (estimate_fields rows)

(* The same shape with the rows as pre-encoded text, for the cache-hit
   path; it is only ever printed. *)
let encoded_estimate_reply =
  obj
    (fun cached estimator results -> (cached, estimator, results))
    (fun (cached, estimator, results) k -> k cached estimator results)
    (estimate_fields
       (map (fun _ -> Error "pre-encoded rows") (fun e -> Json.Encoded e) any))

let encode_results rs = Json.encode (to_json rows rs)

let encoded_estimate_reply_to_json ~cached ~estimator results =
  to_json encoded_estimate_reply (cached, estimator, results)

let margin =
  obj ~check:Contention.Margin.validate
    (fun confidence method_ period lo hi mean std samples ->
      { Contention.Margin.confidence; method_; period; lo; hi; mean; std; samples })
    (fun (m : Contention.Margin.t) k ->
      k m.confidence m.method_ m.period m.lo m.hi m.mean m.std m.samples)
    (req "confidence" num ++ req "method" margin_method ++ req "period" num
   ++ req "lo" num ++ req "hi" num ++ req "mean" num ++ req "std" num
   ++ req "samples" int)

let verdict =
  variant ~key:"verdict" ~what:"verdict"
    [
      case "admitted"
        (fun throughput margin -> Admitted { throughput; margin })
        (function
          | Admitted { throughput; margin } -> Some (fun k -> k throughput margin)
          | _ -> None)
        (req "throughput" num ++ opt "margin" margin);
      case "rejected-candidate"
        (fun estimated required -> Rejected_candidate { estimated; required })
        (function
          | Rejected_candidate { estimated; required } ->
              Some (fun k -> k estimated required)
          | _ -> None)
        (req "estimated" num ++ req "required" num);
      case "rejected-victim"
        (fun victim estimated required ->
          Rejected_victim { victim; estimated; required })
        (function
          | Rejected_victim { victim; estimated; required } ->
              Some (fun k -> k victim estimated required)
          | _ -> None)
        (req "victim" string ++ req "estimated" num ++ req "required" num);
    ]

(* {"total": N, <command>: N, ...}: the per-command counts are whatever
   integral members follow the total. *)
let request_counts =
  let total = obj Fun.id (fun n k -> k n) (req "total" int) in
  map
    (function
      | Json.Obj kvs as json ->
          Result.map
            (fun n ->
              ( n,
                List.filter_map
                  (fun (k, v) ->
                    if k = "total" then None
                    else Option.map (fun n -> (k, n)) (Json.get_int v))
                  kvs ))
            (of_json total json)
      | _ -> Error "field \"requests\" has the wrong type")
    (fun (n, per_cmd) ->
      Json.Obj
        (("total", to_json int n) :: List.map (fun (c, n) -> (c, to_json int n)) per_cmd))
    any

(* Audit counters are read as truncated numbers, like every field of the
   audit block: lenient, since pre-audit servers do not send it. *)
let audit_stats =
  let count = map (fun x -> Ok (int_of_float x)) float_of_int num in
  obj
    (fun audit_sample audit_submitted audit_completed audit_dropped audit_failed
         audit_mean_err audit_max_abs_err audit_alarms audit_drifting
         audit_margin_checked audit_margin_missed ->
      {
        audit_sample; audit_submitted; audit_completed; audit_dropped;
        audit_failed; audit_mean_err; audit_max_abs_err; audit_alarms;
        audit_drifting; audit_margin_checked; audit_margin_missed;
      })
    (fun a k ->
      k a.audit_sample a.audit_submitted a.audit_completed a.audit_dropped
        a.audit_failed a.audit_mean_err a.audit_max_abs_err a.audit_alarms
        a.audit_drifting a.audit_margin_checked a.audit_margin_missed)
    (lenient "sample" 0 count ++ lenient "submitted" 0 count
   ++ lenient "completed" 0 count ++ lenient "dropped" 0 count
   ++ lenient "failed" 0 count ++ lenient "mean_err" 0. num
   ++ lenient "max_abs_err" 0. num ++ lenient "alarms" 0 count
   ++ lenient "drifting" [] (list string)
   ++ lenient "margin_checked" 0 count ++ lenient "margin_missed" 0 count)

(* Every audit field defaults: this is the all-zero block. *)
let no_audit = Result.get_ok (of_json audit_stats (Json.Obj []))

(* The margin accounting, the SLO block and the audit block are absent from
   older servers: they default to zero so a new client still reads an old
   server's stats. *)
let stats_reply =
  obj
    (fun uptime_s connections (requests_total, requests) workloads sessions
         cache_entries cache_capacity cache_hits cache_misses active_connections
         workers queue_capacity shed admitted rejected_candidate rejected_victim
         released margins_served margin_mean_rel_width latency_mean_us
         latency_p50_us latency_p90_us latency_p99_us latency_max_us
         latency_samples slo_objective_ms slo_target slo_burn_1m slo_burn_1h
         audit ->
      {
        uptime_s; connections; requests; requests_total; workloads; sessions;
        cache_entries; cache_capacity; cache_hits; cache_misses;
        active_connections; workers; queue_capacity; shed; admitted;
        rejected_candidate; rejected_victim; released; margins_served;
        margin_mean_rel_width; latency_mean_us; latency_p50_us; latency_p90_us;
        latency_p99_us; latency_max_us; latency_samples; slo_objective_ms;
        slo_target; slo_burn_1m; slo_burn_1h; audit;
      })
    (fun s k ->
      k s.uptime_s s.connections (s.requests_total, s.requests) s.workloads
        s.sessions s.cache_entries s.cache_capacity s.cache_hits s.cache_misses
        s.active_connections s.workers s.queue_capacity s.shed s.admitted
        s.rejected_candidate s.rejected_victim s.released s.margins_served
        s.margin_mean_rel_width s.latency_mean_us s.latency_p50_us
        s.latency_p90_us s.latency_p99_us s.latency_max_us s.latency_samples
        s.slo_objective_ms s.slo_target s.slo_burn_1m s.slo_burn_1h s.audit)
    (req "uptime_s" num ++ req "connections" int
   ++ req "requests" request_counts ++ req "workloads" int
   ++ req "sessions" int
    ++ section "cache"
         (req "entries" int ++ req "capacity" int ++ req "hits" int
        ++ req "misses" int)
    ++ section "pool"
         (req "active_connections" int ++ req "workers" int
        ++ req "queue_capacity" int ++ req "shed" int)
    ++ section "admission"
         (req "admitted" int ++ req "rejected_candidate" int
        ++ req "rejected_victim" int ++ req "released" int
        ++ lenient "margins" 0 int ++ lenient "margin_mean_rel_width" 0. num)
    ++ section "latency_us"
         (req "mean" num ++ req "p50" num ++ req "p90" num ++ req "p99" num
        ++ req "max" num ++ req "samples" int)
    ++ section ~optional:true "slo"
         (lenient "objective_ms" 0. num ++ lenient "target" 0. num
        ++ lenient "burn_1m" 0. num ++ lenient "burn_1h" 0. num)
    ++ dft "audit" no_audit audit_stats)

(* The provenance record of {!Contention.Explain}. *)
let explain =
  let open Contention.Explain in
  let contender =
    obj
      (fun c_app c_actor c_p c_mu c_tau -> { c_app; c_actor; c_p; c_mu; c_tau })
      (fun c k -> k c.c_app c.c_actor c.c_p c.c_mu c.c_tau)
      (req "app" string ++ req "actor" int ++ req "p" num ++ req "mu" num
     ++ req "tau" num)
  and fold_step =
    obj
      (fun f_app f_actor f_p f_w -> { f_app; f_actor; f_p; f_w })
      (fun f k -> k f.f_app f.f_actor f.f_p f.f_w)
      (req "app" string ++ req "actor" int ++ req "p" num ++ req "w" num)
  and sandwich =
    obj
      (fun s_order s_lower s_upper -> { s_order; s_lower; s_upper })
      (fun s k -> k s.s_order s.s_lower s.s_upper)
      (req "order" int ++ req "lower" num ++ req "upper" num)
  in
  let actor =
    obj
      (fun a_index a_name a_proc a_exec a_p a_mu a_contenders a_fold a_sandwich
           a_wait a_response ->
        {
          a_index; a_name; a_proc; a_exec; a_p; a_mu; a_contenders; a_fold;
          a_sandwich; a_wait; a_response;
        })
      (fun a k ->
        k a.a_index a.a_name a.a_proc a.a_exec a.a_p a.a_mu a.a_contenders
          a.a_fold a.a_sandwich a.a_wait a.a_response)
      (req "actor" int ++ req "name" string ++ req "proc" int ++ req "exec" num
     ++ req "p" num ++ req "mu" num ++ req "contenders" (list contender)
     ++ omit "fold" [] (list fold_step) ++ omit "sandwich" None (some sandwich)
     ++ req "wait" num ++ req "response" num)
  in
  let app =
    obj
      (fun x_app x_isolation x_period x_factor x_throughput x_actors ->
        { x_app; x_isolation; x_period; x_factor; x_throughput; x_actors })
      (fun x k ->
        k x.x_app x.x_isolation x.x_period x.x_factor x.x_throughput x.x_actors)
      (req "app" string ++ req "isolation_period" num ++ req "period" num
     ++ req "contention_factor" num ++ req "throughput" num
     ++ req "actors" (list actor))
  in
  obj
    (fun estimator engine usecase apps -> { estimator; engine; usecase; apps })
    (fun t k -> k t.estimator t.engine t.usecase t.apps)
    (req "estimator" string ++ req "engine" string
   ++ req "usecase" (list string) ++ req "apps" (list app))

let upload_reply_to_json = to_json upload_reply
let upload_reply_of_json = of_json upload_reply
let estimate_reply_to_json = to_json estimate_reply
let estimate_reply_of_json = of_json estimate_reply
let explain_reply_to_json = to_json explain
let explain_reply_of_json = of_json explain
let verdict_to_json = to_json verdict
let verdict_of_json = of_json verdict
let stats_reply_to_json = to_json stats_reply
let stats_reply_of_json = of_json stats_reply
let metrics_reply_to_json = to_json metrics_reply
let metrics_reply_of_json = of_json metrics_reply

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
