(** Preemptive TDMA simulation.

    Each processor runs a time wheel of length [wheel], divided into equal
    slices among the applications that map at least one actor onto it (in
    application-index order).  A firing executes only during its
    application's slice and is paused at the boundary — the execution model
    assumed by the TDMA worst-case analysis of the paper's reference [3]
    (implemented analytically in {!Contention.Tdma}).  Strict TDMA never
    reassigns an idle slice, which is exactly the pessimism the paper's
    probabilistic approach avoids by not imposing any schedule.

    Results reuse {!Engine.result} so TDMA, FCFS and static-order runs
    compare directly.

    Modelling choices: firings of one application run back to back within
    its slice; a firing enabled mid-slice by a completion on {e another}
    processor is served from the arrival point onwards within the owner's
    slices (arrival stamps are respected); an idle slice is wasted, as strict
    TDMA demands. *)

val slice_of : wheel:float -> sharers:int -> float
(** Equal division of the wheel ([wheel / sharers]).
    @raise Invalid_argument unless both arguments are positive. *)

val run :
  ?horizon:float ->
  ?warmup_iterations:int ->
  ?on_event:(Engine.event -> unit) ->
  wheel:float ->
  procs:int ->
  Engine.app array ->
  Engine.result array * Engine.stats
(** Simulate under preemptive TDMA.  Defaults as {!Engine.run}.  [on_event]
    sees [Start] when a firing's first segment begins executing and [Finish]
    at its final completion, so start-to-finish spans include preemption
    gaps.
    @raise Invalid_argument on an invalid mapping, an empty application set,
    a non-positive [wheel], or a horizon that is NaN, infinite or negative. *)
