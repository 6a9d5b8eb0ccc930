(** The daemon's wire protocol.

    One request per line, one reply per line, both JSON objects.  A request
    carries a ["cmd"] field naming the command plus command-specific fields;
    a reply is [{"ok": <payload>}] on success, [{"error": "<message>"}] on
    failure, or [{"shed": {"queue_depth": N}}] when the server's bounded
    accept queue is full and the connection is refused under load (the
    backpressure verdict — see {!Server}).  Protocol errors (malformed JSON,
    unknown command, missing fields, unknown digests…) are {e replies},
    never connection drops — a misbehaving client must not crash or stall
    the server.

    Both the server's dispatcher and {!Client} are written against this
    module, so the codecs are exercised from both ends in the tests. *)

type estimate_row = {
  app : string;
  period : float;
  isolation_period : float;
  throughput : float;
}

type request =
  | Ping
  | Upload of { payload : string }
      (** A workload in the {!Exp.Workload.save} text format. *)
  | Estimate of {
      digest : string;  (** Content digest returned by upload. *)
      usecase : string list option;  (** App names; [None] = all apps. *)
      estimator : Contention.Analysis.estimator;
    }
  | Admit of {
      session : string;
      digest : string;
      app : string;
      min_throughput : float;
      confidence : float option;
          (** Requested confidence level for the admission margin; [None]
              means a plain point estimate (the pre-margin wire shape). *)
      margin_method : Contention.Margin.method_ option;
          (** Margin variant; defaults to z-score when only a confidence is
              given. *)
    }
  | Release of { session : string; app : string }
  | Cache_put of {
      digest : string;  (** Content digest of the (uploaded) workload. *)
      mask : int;  (** Use-case mask, the cache key's second component. *)
      estimator : string;  (** Canonical estimator name. *)
      rows : estimate_row list;
    }
      (** Peer-to-peer cache replication: install precomputed estimate rows
          into the receiving server's estimate cache.  The cluster router
          forwards hot entries this way so a failover peer can answer from
          cache.  The digest must name a workload the receiver has (upload
          is broadcast in cluster mode), and the estimator must be a valid
          {!estimator_of_string} name — the key is re-canonicalised so a
          forwarded entry actually hits. *)
  | Explain of {
      digest : string;
      usecase : string list option;
      estimator : Contention.Analysis.estimator;
    }
      (** Like [Estimate], but the reply is the full provenance record
          ({!Contention.Explain.t}) the estimate derives from — every
          recorded number is bit-identical to the served estimate. *)
  | Stats
  | Metrics
      (** Prometheus exposition of the server's {!Obs.Metric} registry, so
          an operator can scrape over the existing wire. *)
  | Shutdown

val default_session : string
(** ["default"] — used when a client does not name a session. *)

val estimator_of_string :
  string -> (Contention.Analysis.estimator, string) result
(** Accepts the canonical names of {!Contention.Analysis.estimator_name}
    ("worst-case", "second-order", "fourth-order", "order-M",
    "composability", "exact"), the short aliases "wc", "o2", "o4", "comp",
    and a bare integer M >= 2 for [Order M]. *)

val estimator_to_string : Contention.Analysis.estimator -> string
(** [Contention.Analysis.estimator_name] — the canonical wire name, also
    the estimator component of the cache key. *)

val request_to_json : ?trace:Obs.Span.ctx -> request -> Json.t
(** With [?trace], appends a ["trace"] envelope member
    ([{"id": "<16 hex>", "parent": "<16 hex>", "sampled": bool}]) so the
    receiving server re-establishes the caller's trace context.  Servers
    that predate the field ignore it ({!request_of_json} skips unknown
    members), so mixed-version clusters interoperate. *)

val request_of_json : Json.t -> (request, string) result

val trace_to_json : Obs.Span.ctx -> Json.t

val trace_of_request : Json.t -> Obs.Span.ctx option
(** The request envelope's trace context, if present and well-formed.
    Total and lenient: a malformed ["trace"] member (wrong type, bad hex,
    zero id) yields [None] — a broken trace header must never reject an
    otherwise valid request.  [sampled] defaults to [true]. *)

(** {1 Reply payloads} *)

type upload_reply = { digest : string; apps : string list; procs : int }

type estimate_reply = {
  cached : bool;  (** Whether the answer came from the estimate cache. *)
  estimator : string;  (** Canonical estimator name. *)
  rows : estimate_row list;
}

type verdict =
  | Admitted of { throughput : float; margin : Contention.Margin.t option }
      (** The candidate's estimated throughput under the new mix, plus the
          confidence interval around its served period when the request
          asked for one. *)
  | Rejected_candidate of { estimated : float; required : float }
  | Rejected_victim of { victim : string; estimated : float; required : float }

type audit_stats = {
  audit_sample : int;  (** 1-in-N head sampling rate; [0] = auditing off. *)
  audit_submitted : int;  (** Estimates handed to the shadow auditor. *)
  audit_completed : int;  (** Replays finished (each covers every row). *)
  audit_dropped : int;  (** Submissions refused: audit queue full. *)
  audit_failed : int;  (** Replays that raised or produced no period. *)
  audit_mean_err : float;  (** Running mean signed relative error. *)
  audit_max_abs_err : float;  (** Largest absolute relative error seen. *)
  audit_alarms : int;  (** Page–Hinkley drift alarms raised since start. *)
  audit_drifting : string list;  (** Estimators currently flagged. *)
  audit_margin_checked : int;
      (** Served margins replayed against the simulator so far. *)
  audit_margin_missed : int;
      (** Replays whose observed period fell outside the served margin. *)
}

val no_audit : audit_stats
(** All-zero: what a pre-audit (or audit-disabled) server reports. *)

type stats_reply = {
  uptime_s : float;
  connections : int;
  requests : (string * int) list;  (** Per command, served so far. *)
  requests_total : int;
  workloads : int;
  sessions : int;
  cache_entries : int;
  cache_capacity : int;
  cache_hits : int;
  cache_misses : int;
  active_connections : int;  (** Connections being served right now. *)
  workers : int;  (** Worker domains — the pool's capacity. *)
  queue_capacity : int;  (** Accept-queue bound; 0 = unbounded. *)
  shed : int;  (** Connections refused with a shed verdict so far. *)
  admitted : int;
  rejected_candidate : int;
  rejected_victim : int;
  released : int;
  margins_served : int;  (** Admit replies that carried a margin. *)
  margin_mean_rel_width : float;
      (** Running mean of served margins' relative width ([width/period]). *)
  latency_mean_us : float;
  latency_p50_us : float;
  latency_p90_us : float;
  latency_p99_us : float;
  latency_max_us : float;
  latency_samples : int;
  slo_objective_ms : float;  (** Latency objective requests are judged by. *)
  slo_target : float;  (** Availability target, e.g. [0.999]. *)
  slo_burn_1m : float;  (** Error-budget burn rate over the last minute. *)
  slo_burn_1h : float;  (** Burn rate over the last hour (see {!Slo}). *)
  audit : audit_stats;  (** Shadow-audit accuracy accounting ({!Audit}). *)
}

val cache_hit_rate : stats_reply -> float
(** Hits over lookups, [0.] before any lookup. *)

val pool_occupancy : stats_reply -> float
(** Active connections over worker domains, [0.] when workers is 0. *)

type metrics_reply = { prometheus : string }
(** The Prometheus text payload ({!Obs.Prometheus.expose}). *)

val upload_reply_to_json : upload_reply -> Json.t
val upload_reply_of_json : Json.t -> (upload_reply, string) result
val estimate_reply_to_json : estimate_reply -> Json.t
val estimate_reply_of_json : Json.t -> (estimate_reply, string) result

val encode_results : estimate_row list -> Json.encoded
(** The ["results"] member of an estimate reply, encoded once so that a
    server can send the same rows many times without formatting them
    again. *)

val encoded_estimate_reply_to_json :
  cached:bool -> estimator:string -> Json.encoded -> Json.t
(** {!estimate_reply_to_json} with the rows given as {!encode_results} text;
    it prints the same bytes. *)

val json_of_explain : Contention.Explain.json -> Json.t
(** Structural copy between the core provenance AST and the wire codec. *)

val explain_json_of_json : Json.t -> Contention.Explain.json

val explain_reply_to_json : Contention.Explain.t -> Json.t

val explain_reply_of_json : Json.t -> (Contention.Explain.t, string) result
val margin_to_json : Contention.Margin.t -> Json.t
val margin_of_json : Json.t -> (Contention.Margin.t, string) result
(** Strict: a present-but-malformed margin object is an error (the lenient
    case — an {e absent} margin — is handled by {!verdict_of_json}). *)

val verdict_to_json : verdict -> Json.t
val verdict_of_json : Json.t -> (verdict, string) result
val stats_reply_to_json : stats_reply -> Json.t
val stats_reply_of_json : Json.t -> (stats_reply, string) result
val metrics_reply_to_json : metrics_reply -> Json.t
val metrics_reply_of_json : Json.t -> (metrics_reply, string) result

(** {1 Reply envelope} *)

val ok : Json.t -> Json.t
(** [{"ok": payload}] *)

val error : string -> Json.t
(** [{"error": message}] *)

val shed : queue_depth:int -> Json.t
(** [{"shed": {"queue_depth": N}}] — the backpressure verdict: the server's
    bounded accept queue was full, the request was not served, and the
    client should back off and retry (possibly against another shard). *)

type reply =
  | Reply_ok of Json.t
  | Reply_error of string
  | Reply_shed of { queue_depth : int }

val classify_reply : Json.t -> reply
(** Total classification of a reply envelope; a frame that is none of the
    three cases classifies as [Reply_error]. *)

val unwrap_reply : Json.t -> (Json.t, string) result
(** [Ok payload] for an ok envelope, [Error msg] otherwise; a shed verdict
    maps to [Error "shed: …"] so shed-unaware callers degrade cleanly
    (use {!classify_reply} to tell sheds apart). *)
