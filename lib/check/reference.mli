(** The estimator's list-based reference: the oracle the production
    {!Contention.Analysis} pass is held to.

    {!Contention.Analysis} runs every estimate on the zero-allocation
    {!Contention.Kernel}.  This module keeps the straightforward Figure-4
    pass: per-actor contender lists folded by the list evaluators below,
    and {!Sdf.Hsdf.period_of_expansion} for the periods.  The kernel
    replicates its floating-point operation sequences, so the two agree bit
    for bit; the tests, {!Oracle.kernel_agreement}, [sweep --exact-check]
    and the benchmark's kernel/reference ratio compare against it. *)

(** Worst-case-response-time baseline (the paper's reference [6]): every
    co-mapped actor ahead of the arrival, each executing once in full. *)
module Wcrt : sig
  val waiting_time : Contention.Prob.t list -> float
  (** Sum of the co-mapped actors' full execution times ([tau]). *)

  val waiting_time_of_exec_times : float list -> float
end

(** Equation 4, [W = sum_i mu_i P_i (1 + sum_(j=1)^(n-1) (-1)^(j+1)/(j+1)
    e_j(P_(-i)))], each [e_j(P_(-i))] by guarded deconvolution
    ({!Contention.Sympoly.remove}). *)
module Exact : sig
  val series_coefficient : int -> float
  (** [(-1)^(j+1) / (j+1)], the weight of [e_j]. *)

  val waiting_time : Contention.Prob.t list -> float

  val waiting_time_brute_force : Contention.Prob.t list -> float
  (** Enumerates every blocking subset [S]:
      [E(wait | S) = (2|S| - 1)/|S| * sum_(i in S) mu_i].
      @raise Invalid_argument beyond 25 loads. *)
end

(** Equation 4 cut after the symmetric polynomial of degree [order - 1]
    (Equation 5 and Section 4.1): even orders over-estimate, odd ones
    under-estimate. *)
module Approx : sig
  val waiting_time : order:int -> Contention.Prob.t list -> float
  (** @raise Invalid_argument if [order < 2]. *)

  val second_order : Contention.Prob.t list -> float
  (** The closed form [W = sum_i mu_i P_i (1 + 1/2 sum_(j≠i) P_j)]. *)

  val fourth_order : Contention.Prob.t list -> float
end

val waiting_time : Contention.Analysis.estimator -> Contention.Prob.t list -> float
(** One estimator over one contender list; composability folds
    {!Contention.Compose.waiting_time}. *)

(** {1 The Figure-4 pass}

    References for the {!Contention.Analysis} entry points of the same
    names. *)

type cache
(** Isolation loads and HSDF expansion of one application. *)

val prepare : Contention.Analysis.app -> cache

val estimate_prepared :
  Contention.Analysis.estimator ->
  (Contention.Analysis.app * cache) list ->
  Contention.Analysis.estimate list

val estimate :
  ?iterations:int ->
  Contention.Analysis.estimator ->
  Contention.Analysis.app list ->
  Contention.Analysis.estimate list

val estimate_calibrated :
  Contention.Analysis.estimator ->
  (Contention.Analysis.app * float) list ->
  Contention.Analysis.estimate list

val check_sweep : Exp.Sweep.t -> unit
(** [sweep --exact-check]: re-run every use-case and estimator of a sweep
    here; each recorded period, and the kernel's waiting and response times
    for the same inputs, must lie within [1e-9] of this reference.
    @raise Failure on the first divergence, naming the application, the
    estimator and the quantity with both values. *)
