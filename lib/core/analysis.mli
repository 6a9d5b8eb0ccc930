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
  | Worst_case  (** Baseline: sum of others' execution times ({!Wcrt}). *)
  | Order of int  (** m-th order truncation of Eq. 4 ({!Approx}). *)
  | Composability  (** ⊕/⊗ aggregation with inverses ({!Compose}). *)
  | Exact  (** Full Eq. 4 ({!Exact}). *)

val estimator_name : estimator -> string
val all_paper_estimators : estimator list
(** [[Worst_case; Order 4; Order 2; Composability]] — the four methods of the
    paper's evaluation, in its Figure 5 legend order. *)

type period_engine =
  | Mcm  (** HSDF expansion + maximum cycle ratio ({!Sdf.Hsdf}); default. *)
  | Statespace  (** Self-timed execution ({!Sdf.Statespace}). *)

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
    @raise Invalid_argument on a deadlocking graph, invalid mapping, or a
    distribution array of the wrong length. *)

val loads : app -> Prob.t array
(** Per-actor load descriptors from the isolation period. *)

val loads_at_period : app -> period:float -> Prob.t array
(** Load descriptors re-based on another period — e.g. a measured one (the
    Section 6 calibration).  @raise Invalid_argument if it is not positive. *)

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

val estimate :
  ?engine:period_engine ->
  ?iterations:int ->
  estimator ->
  app list ->
  estimate list
(** [estimate est apps] runs the Figure 4 algorithm for the use-case
    consisting of exactly [apps] (order preserved in the result).

    [iterations] (default [1], the paper's single pass) re-derives blocking
    probabilities from the estimated periods and repeats the analysis — a
    fixed-point refinement evaluated as an ablation.

    Waiting times are estimated from {e every} co-mapped actor, including
    actors of the same application sharing a node (the Figure 4 algorithm
    makes no distinction); a lone application whose actors all have dedicated
    processors therefore keeps its isolation period exactly. *)

type cache
(** Use-case-invariant per-application precomputation: the isolation-period
    load descriptors ({!loads}) and the HSDF expansion of the application
    graph (reused through {!Sdf.Hsdf.period_of_expansion} by the MCM engine).
    A cache depends only on the [app] it was prepared from, so it can be
    computed once per workload, shared read-only across domains, and reused
    by every use-case the application appears in. *)

val prepare : app -> cache

val kernel_graph : Sdf.Graph.t -> Kernel.graph
(** The graph's HSDF expansion flattened for {!Kernel.period_into} — the
    topology-only part of a {!cache}, which {!Admission} keeps per admitted
    application.  [Kernel.period_into] over it with per-actor response times
    is bit-identical to {!Sdf.Hsdf.period} of the graph carrying those
    times.
    @raise Invalid_argument as {!Sdf.Hsdf.expand}. *)

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
  ?engine:period_engine ->
  ?workspace:workspace ->
  ?exact_check:bool ->
  estimator ->
  (app * cache) list ->
  estimate list
(** Exactly {!estimate} with [iterations = 1], but with the per-app
    isolation work supplied by the caller instead of being recomputed: the
    results are bit-identical to [estimate est apps].  This is the hot path
    of {!Exp.Sweep}, where each application's cache is hit by up to
    [2^(n-1)] use-cases.

    With the default [Mcm] engine the pass runs on the zero-allocation
    {!Kernel} evaluators over [workspace] (default: the domain's
    {!shared_workspace}); the kernel replicates the reference's
    floating-point operation sequences, so the switch is invisible in the
    results.  [exact_check] (default [false]) re-runs every use-case on
    {!estimate_prepared_reference} and fails if any waiting time, response
    time, or period differs by more than [1e-9] — the belt-and-braces mode
    for long unattended runs.
    @raise Invalid_argument when a cache was prepared from a different
    application than the one it is paired with.
    @raise Failure on an [exact_check] divergence. *)

val estimate_prepared_reference :
  ?engine:period_engine -> estimator -> (app * cache) list -> estimate list
(** The list-based reference implementation {!estimate_prepared} is checked
    against (and the pre-kernel behaviour): {!waiting_time_for} per actor,
    {!Sdf.Hsdf.period_of_expansion} per app.  Kept as the baseline for
    [exact_check], the fuzzing oracle, and the benchmark's speedup ratio. *)

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
  ?engine:period_engine ->
  ?workspace:workspace ->
  ?exact_check:bool ->
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
    [out] must have room for {!Usecase.cardinal}[ usecase] periods.  Only
    the [Mcm] engine's semantics; validation is done by
    {!prepare_workload}. *)

val waiting_time_for : estimator -> Prob.t list -> float
(** The raw per-actor waiting-time kernel used by {!estimate}: expected wait
    inflicted by the given co-mapped loads. *)

val estimate_with_loads :
  ?engine:period_engine ->
  estimator ->
  (app * Prob.t array) list ->
  estimate list
(** One Figure-4 pass with caller-supplied per-actor loads — the building
    block behind {!estimate_calibrated} and {!Interval.period_interval}.
    @raise Invalid_argument on a loads array of the wrong length. *)

val estimate_calibrated :
  ?engine:period_engine ->
  estimator ->
  (app * float) list ->
  estimate list
(** Run-time calibration (the paper's Section 6: "the approach can benefit
    even more by using the run-time throughput of the applications"):
    blocking probabilities are derived from each application's {e measured}
    period instead of its isolation period, and one estimation pass is run
    on top.  Since contention stretches periods, measured-period loads are
    smaller and the estimate tightens towards the observed system.
    @raise Invalid_argument on a non-positive measured period. *)
