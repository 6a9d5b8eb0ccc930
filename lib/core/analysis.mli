(** Period estimation under resource contention — the paper's Figure 4
    algorithm with pluggable waiting-time estimators.

    For every application in a use-case:
    + derive each actor's blocking probability and average blocking time from
      its {e isolation} period (Definitions 4–5);
    + group actors by the processor they are mapped on — across {e all}
      applications of the use-case;
    + estimate each actor's expected waiting time from the co-mapped actors'
      loads, add it to the execution time (response time);
    + recompute the application period by throughput analysis of the graph
      with response times as execution times. *)

type estimator =
  | Worst_case  (** Baseline: sum of others' execution times. *)
  | Order of int  (** m-th order truncation of Eq. 4 (Eq. 5 for [m = 2]). *)
  | Composability  (** ⊕/⊗ aggregation with inverses ({!Compose}). *)
  | Exact  (** Full Eq. 4. *)

val estimator_name : estimator -> string

val estimator_of_string : string -> (estimator, string) result
(** The one estimator-name grammar (CLI, wire protocol, provenance
    records): the canonical names of {!estimator_name} ("worst-case",
    "second-order", "fourth-order", "order-M", "composability", "exact"),
    the short aliases "wc", "o2", "o4", "comp", and a bare integer M >= 2
    for [Order M]; case and surrounding blanks are ignored. *)

val all_paper_estimators : estimator list
(** [[Worst_case; Order 4; Order 2; Composability]] — the four methods of the
    paper's evaluation, in its Figure 5 legend order. *)

type app = private {
  graph : Sdf.Graph.t;
  mapping : Mapping.t;
  repetition : int array;
  isolation_period : float;
  distributions : Dist.t array option;
      (** Per-actor execution-time distributions when the application uses
          the variable-execution-time extension; [None] for the paper's
          constant-time base model. *)
}

val app :
  ?period:float ->
  ?procs:int ->
  ?distributions:Dist.t array ->
  Sdf.Graph.t ->
  mapping:Mapping.t ->
  app
(** Wrap a graph and its mapping.  The isolation period is computed with
    {!Sdf.Statespace} unless [period] is given.  When [procs] is given the
    mapping is validated against it.

    With [distributions] (one per actor), the graph's execution times are
    replaced by the distribution means for all throughput computations and
    the loads use mean residual lives as blocking times (Section 6 of the
    paper); the per-firing durations themselves are only drawn when
    simulating ({!Desim.Engine.run}'s [firing_time] hook).
    @raise Invalid_argument on a deadlocking graph, invalid mapping, a
    distribution array of the wrong length, or a [period] that is not
    finite and positive. *)

val loads : app -> Prob.t array
(** Per-actor load descriptors from the isolation period. *)

val loads_at_period : app -> period:float -> Prob.t array
(** Load descriptors re-based on another period — e.g. a measured one (the
    Section 6 calibration).  @raise Invalid_argument unless it is finite
    and positive. *)

type estimate = {
  for_app : app;
  waiting_times : float array;  (** Estimated waiting time per actor. *)
  response_times : float array;  (** [exec_time + waiting_time] per actor. *)
  period : float;  (** Estimated application period in the use-case. *)
}

val throughput : estimate -> float
(** [1 / period]. *)

val adjusted_graph : estimate -> Sdf.Graph.t
(** The application graph with response times as execution times — the
    object the new period was computed on, also usable for latency and
    buffer analysis under contention ({!Sdf.Metrics}). *)

val contended_metrics : estimate -> Sdf.Metrics.t option
(** {!Sdf.Metrics.analyse} of {!adjusted_graph}: estimated latency, makespan
    and buffer peaks of the application {e while sharing} its processors. *)

val estimate : ?iterations:int -> estimator -> app list -> estimate list
(** [estimate est apps] runs the Figure 4 algorithm for the use-case
    consisting of exactly [apps] (order preserved in the result), on the
    {!Kernel} evaluators and period search.

    [iterations] (default [1], the paper's single pass) re-derives blocking
    probabilities from the estimated periods and repeats the analysis — a
    fixed-point refinement evaluated as an ablation.

    Waiting times are estimated from {e every} co-mapped actor, including
    actors of the same application sharing a node (the Figure 4 algorithm
    makes no distinction).  A lone application whose actors all have
    dedicated processors waits nowhere, so its period is its isolation
    period up to the period search's 1e-9 bracket: the search returns a
    bisection midpoint, not the exact cycle ratio ({!Kernel.period_into}).
    @raise Invalid_argument if [iterations < 1] or on [Order m] with
    [m < 2]. *)

type cache
(** Use-case-invariant per-application precomputation: the isolation-period
    load descriptors ({!loads}), the execution times and the HSDF expansion
    of the application graph flattened for {!Kernel.period_into}.  A cache
    depends only on the [app] it was prepared from, so it can be computed
    once per workload, shared read-only across domains, and reused by every
    use-case the application appears in. *)

val prepare : app -> cache

val kernel_graph : Sdf.Graph.t -> Kernel.graph
(** The graph's HSDF expansion flattened for {!Kernel.period_into} — the
    topology-only part of a {!cache}, which {!Admission} keeps per admitted
    application.  [Kernel.period_into] over it with per-actor response times
    is bit-identical to {!Sdf.Hsdf.period} of the graph carrying those
    times.
    @raise Invalid_argument as {!Sdf.Hsdf.expand}. *)

val waits_into :
  Kernel.scratch ->
  estimator ->
  p:float array ->
  mu:float array ->
  tau:float array ->
  off:int ->
  n:int ->
  out:float array ->
  unit
(** The {!Kernel} evaluator of one estimator over one processor group (see
    {!Kernel.wc_into} and its siblings for the slice layout): the wait the
    members at [off..off+n-1] inflict on each other, written to [out].  This
    is the per-group step of every pass; {!Explain} calls it to record and
    to re-derive waits.  The scratch must have been grown with
    {!Kernel.reserve_group} for [n] members.
    @raise Invalid_argument on [Order m] with [m < 2]. *)

type workspace
(** Preallocated buffers for the kernel engine's Figure-4 pass ({!Kernel}):
    per-processor member layout, flat load/wait arrays, period-search
    scratch.  Buffers grow to the workload's high-water mark and are then
    reused — after warm-up a pass performs no heap allocation.  Not
    thread-safe: use one per domain. *)

val workspace : unit -> workspace

val shared_workspace : unit -> workspace
(** The calling domain's workspace (domain-local storage) — what the
    [?workspace] arguments default to.  Parallel sweeps ({!Exp.Pool}) thus
    reuse one set of buffers per domain with no sharing or locking. *)

val estimate_prepared :
  ?workspace:workspace -> estimator -> (app * cache) list -> estimate list
(** Exactly {!estimate} with [iterations = 1], but with the per-app
    isolation work supplied by the caller instead of being recomputed: the
    results are bit-identical to [estimate est apps].  This is the hot path
    of {!Exp.Sweep}, where each application's cache is hit by up to
    [2^(n-1)] use-cases.  The pass runs over [workspace] (default: the
    domain's {!shared_workspace}).
    @raise Invalid_argument when a cache was prepared from a different
    application than the one it is paired with. *)

(** {1 Batched evaluation}

    Sweeping the use-cases of one workload evaluates the same applications
    under up to [2^n - 1] activation masks.  [prepared] fixes the workload
    once; {!estimate_batch} and {!estimate_periods_into} then evaluate many
    masks against it, sharing one {!workspace} across calls. *)

type prepared
(** A fixed workload: applications and their caches, validated once. *)

val prepare_workload : ?caches:cache array -> app array -> prepared
(** [prepare_workload apps] runs {!prepare} on each app (or adopts [caches]
    when given, e.g. ones already hoisted by a sweep).
    @raise Invalid_argument on a cache/app mismatch or length mismatch. *)

val estimate_batch :
  ?workspace:workspace ->
  estimator ->
  prepared ->
  Usecase.t list ->
  estimate list list
(** One {!estimate_prepared} per use-case (apps ascending by index, as
    {!Usecase.to_list}), bit-identical to the one-at-a-time calls but with
    the workspace shared across the whole batch.  An empty use-case yields
    [[]]. *)

val estimate_periods_into :
  workspace -> estimator -> prepared -> usecase:Usecase.t -> out:float array -> int
(** The allocation-free core: evaluates one use-case and writes the period
    of the [k]-th active application (ascending by index) to [out.(k)],
    returning the number of active applications.  No estimate records, no
    spans, no lists — once the workspace is warm, a call performs {e zero}
    heap allocation (enforced by the test suite's allocation budget).
    [out] must have room for {!Usecase.cardinal}[ usecase] periods.
    Validation is done by {!prepare_workload}. *)

val estimate_with_loads : estimator -> (app * Prob.t array) list -> estimate list
(** One Figure-4 pass with caller-supplied per-actor loads — the building
    block behind {!estimate_calibrated}.
    @raise Invalid_argument on a loads array of the wrong length. *)

val estimate_calibrated :
  estimator ->
  (app * float) list ->
  estimate list
(** Run-time calibration (the paper's Section 6: "the approach can benefit
    even more by using the run-time throughput of the applications"):
    blocking probabilities are derived from each application's {e measured}
    period instead of its isolation period, and one estimation pass is run
    on top.  Since contention stretches periods, measured-period loads are
    smaller and the estimate tightens towards the observed system.
    @raise Invalid_argument unless every measured period is finite and
    positive. *)
