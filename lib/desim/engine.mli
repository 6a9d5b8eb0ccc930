(** Discrete-event simulation of multiple SDF applications sharing
    processors — the reference ("measured") performance the paper compares
    its estimates against (their setup used POOSL).

    Semantics, as stated in the paper:
    - every actor is statically mapped on one processor;
    - processors are non-preemptive: a firing runs to completion;
    - arbitration is first-come-first-served among enabled firings, with no
      imposed static order;
    - an actor has at most one outstanding firing (no auto-concurrency) and
      joins its processor's queue the moment it becomes enabled.

    Because SDF enabledness is monotone (only an actor itself consumes from
    its input channels), contention delays firings but can never deadlock a
    set of individually live graphs.

    {b Layout.}  One engine serves every {!arbitration}.  Each run numbers
    the actors of all applications globally ([(app, actor)] pairs in
    ascending order) and the channels likewise; input and output channel
    lists are CSR slices of flat int arrays, token counts are an int array,
    and times and busy totals live in float arrays.  Each actor keeps a
    count of its input channels short of tokens (holding fewer than their
    consumption rate), updated where tokens change: consumption when a
    firing starts, production when one finishes.  An actor is enabled when
    it is idle and that count is zero, two array reads.  Each processor has
    a ring-buffer ready queue sized by the actors mapped to it.  The
    processors to dispatch at the end of an instant form a ready set, a
    bitset over [(procs + 61) / 62] int words: a processor's bit is set when
    it is idle and gets a queued actor, or goes idle with queued work.
    Completions wait in a binary heap over parallel float/int arrays, keyed
    by [(time, insertion sequence)]; it needs one slot per processor.

    {b Event order.}  Runs are deterministic, and four tie-breaks fix the
    order of everything that happens at one instant:
    - completions at equal times pop in the order their firings started
      (the heap's insertion sequence);
    - every completion of an instant is processed before any processor
      picks its next firing;
    - a completion queues the finished actor first, then the consumers of
      its output channels in channel order; under {!Fcfs} the ring serves
      in that arrival order;
    - idle processors pick in ascending processor order: the ready set is
      drained from its lowest bit up.  A processor that cannot start (its
      static-order entry is not queued) leaves the set until an actor is
      queued on it.

    {b Allocation.}  Set-up allocates O(actors + channels + processors) per
    run.  With [on_event] and [firing_time] absent, the firing loop
    allocates nothing: [Start]/[Finish] records are built only for an
    [on_event] callback, and a [firing_time] result is boxed by its closure.
    [test/test_engine.ml] enforces this by comparing the minor words of runs
    at two horizons.

    {b Cycle skipping.}  With integer execution times and no hooks, a run is
    a deterministic finite-state system, so it becomes exactly periodic.  At
    the end of every instant in which application 0 completes an iteration
    (once every application has a kept, post-warm-up iteration), the engine
    looks up its canonical state: token counts; per actor whether it is
    idle, queued (with its place in an FCFS ring) or running (with its
    remaining time); each app's [fires0 mod q0] and time since its last
    iteration; and the static-order positions.  The short-of-tokens counts
    need no word, being a function of the token counts, and neither does
    the ready set, which is empty at the end of every instant.  On the
    first exact recurrence it adds every whole cycle that fits before the
    horizon, then steps the rest.  Every result and statistic is
    bit-identical to stepping each firing: all times and busy sums are exact
    float integers.  The states live in a per-domain store of fixed capacity
    (every other state is dropped and the sampling stride doubled when it
    fills), reused across runs; checkpoints allocate nothing once it has
    grown to a workload's state size.  This applies only when every
    execution time is integer-valued and [horizon + max exec <= 2^53], and
    never with [on_event] or [firing_time]; {!stats.cycle} says whether it
    happened. *)

type app = Appstate.app = {
  graph : Sdf.Graph.t;
  mapping : int array;  (** [mapping.(actor_id)] is the processor id. *)
}

type arbitration =
  | Fcfs
      (** First-come-first-served — the paper's setting: no imposed order,
          every actor executes "with least contention on their own". *)
  | Fixed_priority
      (** Non-preemptive static priority: among queued firings the lowest
          application index wins (ties broken by actor id).  Useful to study
          how unfair arbitration skews periods versus the FCFS model the
          analysis assumes. *)
  | Static_order of (int * int) array array
      (** [orders.(proc)] is a cyclic sequence of [(app, actor)] entries; the
          processor serves exactly that sequence, idling until the next
          scheduled firing becomes ready.  This is the arbitration the
          paper's related work ([2]) models — and, as the paper argues, it
          couples independent applications: a stalled entry blocks everyone
          mapped behind it.  A processor with an empty order serves nothing.
          @raise Invalid_argument (from {!run}) if an entry names an unknown
          application or actor, or an actor mapped elsewhere. *)

type event =
  | Start of { time : float; app : int; actor : int; proc : int }
  | Finish of { time : float; app : int; actor : int; proc : int }

type result = Appstate.result = {
  app_name : string;
  iterations : int;  (** Completed graph iterations within the horizon. *)
  avg_period : float;
      (** Mean time per iteration after warm-up; [nan] if fewer than two
          iterations completed after warm-up. *)
  max_period : float;  (** Worst observed inter-iteration gap ([nan] likewise). *)
  min_period : float;
  busy_time : float array;
      (** Per-processor total busy time attributable to this app. *)
}

type cycle = {
  start : float;  (** Time the recurring state was first recorded. *)
  length : float;  (** Time between two visits of that state. *)
  skipped : int;  (** Whole cycles added without stepping their firings. *)
}

type stats = {
  final_time : float;  (** Simulated time at which the run stopped. *)
  total_firings : int;
      (** Firings completed within the horizon, including those of skipped
          cycles. *)
  proc_busy : float array;  (** Per-processor total busy time (all apps). *)
  cycle : cycle option;
      (** The cycle skipped, or [None] when every firing was stepped. *)
}

val run :
  ?horizon:float ->
  ?warmup_iterations:int ->
  ?on_event:(event -> unit) ->
  ?firing_time:(app:int -> actor:int -> float) ->
  ?arbitration:arbitration ->
  procs:int ->
  app array ->
  result array * stats
(** [run ~procs apps] simulates until [horizon] (default [500_000.], the
    paper's setting).  [warmup_iterations] (default [20]) initial iterations
    of each app are excluded from the period statistics to remove the
    transient.

    [firing_time] overrides the duration of each firing as it starts
    (arguments are the application index and actor id); the default uses the
    graph's static execution time.  This is the hook for stochastic
    execution times, time-varying behaviour or fault injection — the value
    must be positive and finite.  It is called once per firing, in start
    order.
    @raise Invalid_argument on an invalid mapping, an empty application set,
    a horizon that is NaN, infinite or negative, or a [firing_time] result
    that is not positive and finite (NaN, infinite, zero or negative). *)

val utilisation : stats -> float array
(** Per-processor busy fraction of the simulated time. *)
