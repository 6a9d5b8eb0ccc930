(** Structured provenance for contention estimates.

    An {!Analysis.estimate} is a handful of numbers; this module records
    {e why} they came out that way: for every actor of every application in
    the use-case, the co-mapped contenders with their feasible-set
    probabilities [P] and expected blocking times [mu] (the inputs of
    Eq. 4/5/7), the resulting expected wait [W] and response time, the
    truncation order with its sandwich error bound (even truncations of
    Eq. 4 over-estimate, odd ones under-estimate), the ⊕/⊗ fold lineage of
    the composability estimator, and per application the isolation period,
    contended period and contention factor.

    The record is {e reproducing}: {!verify} re-derives every waiting time
    and truncation bracket from the recorded contender descriptors alone and
    every period from the application graphs plus the re-derived response
    times, and demands bit-for-bit equality with the recorded values.  Both
    {!compute} and {!verify} evaluate on the {!Kernel} evaluators
    ({!Analysis.waits_into}) and the kernel's period search over
    {!Analysis.kernel_graph} — the production numbers, so a provenance
    record reproduces a served estimate exactly, which is what the serve
    daemon's [explain] command and the shadow auditor lean on.

    The JSON codec is total: {!of_json} never raises, and
    [of_json (to_json t) = Ok t]. *)

(** A minimal JSON document — structurally the same shape as the serve
    layer's codec, which cannot be used here because [serve] sits above
    [contention].  The serve layer converts between the two representations
    at the wire boundary. *)
type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

type contender = {
  c_app : string;  (** Application the contender belongs to. *)
  c_actor : int;  (** Actor index within that application. *)
  c_p : float;  (** Blocking (feasible-set) probability [P]. *)
  c_mu : float;  (** Expected residual blocking time [mu]. *)
  c_tau : float;  (** Execution time the load was derived from. *)
}

type fold_step = {
  f_app : string;
  f_actor : int;
  f_p : float;  (** Aggregate [P] after ⊕-folding this contender (Eq. 6). *)
  f_w : float;  (** Aggregate [W] after ⊗-folding this contender (Eq. 7). *)
}

type sandwich = {
  s_order : int;  (** The truncation order [m] of Eq. 5 that was served. *)
  s_lower : float;  (** Under-estimating bracket (odd-order truncation). *)
  s_upper : float;  (** Over-estimating bracket (even-order truncation). *)
}
(** [s_upper -. s_lower] bounds the truncation error: the exact Eq. 4 value
    lies inside the bracket (Section 4.1's alternating-series argument). *)

type actor = {
  a_index : int;
  a_name : string;
  a_proc : int;  (** Processor the actor is mapped on. *)
  a_exec : float;  (** Execution time τ. *)
  a_p : float;  (** The actor's own blocking probability. *)
  a_mu : float;
  a_contenders : contender list;
      (** Co-mapped actors, in the exact order the estimator folds them. *)
  a_fold : fold_step list;
      (** ⊕/⊗ lineage — one step per contender; non-empty only for the
          composability estimator. *)
  a_sandwich : sandwich option;  (** Present only for [Order m]. *)
  a_wait : float;  (** Expected waiting time [W]. *)
  a_response : float;  (** [a_exec +. a_wait]. *)
}

type app = {
  x_app : string;
  x_isolation : float;  (** Isolation period (the application alone). *)
  x_period : float;  (** Estimated period inside the use-case. *)
  x_factor : float;  (** Contention factor: [x_period /. x_isolation]. *)
  x_throughput : float;  (** [1. /. x_period]. *)
  x_actors : actor list;
}

type t = {
  estimator : string;  (** Canonical estimator name. *)
  engine : string;
      (** Always ["mcm"]: the maximum-cycle-ratio period search of
          {!Kernel.period_into}.  {!verify} rejects any other value. *)
  usecase : string list;  (** Active application names, ascending. *)
  apps : app list;
}

val estimator_of_name : string -> (Analysis.estimator, string) result
(** Parse a canonical {!Analysis.estimator_name} back — exactly the names
    {!compute} stores, nothing looser. *)

val compute : Analysis.estimator -> Analysis.app list -> t
(** Run one Figure-4 pass over exactly the given applications (the
    use-case), recording provenance along the way.  Every recorded number
    is bit-identical to what {!Analysis.estimate} and
    {!Analysis.estimate_prepared} produce for the same inputs.
    @raise Invalid_argument on [Order m] with [m < 2]. *)

val verify : t -> Analysis.app list -> (unit, string) result
(** Re-derive the estimate from the provenance record: waiting times and
    [Order m] brackets from the recorded contender descriptors via the named
    estimator, response times from the recorded execution times, periods
    from the application graphs under the re-derived response times.  [Ok ()] iff every value
    matches the record bit for bit ([Error] names the first divergence).
    The [apps] must be the use-case the record was computed for, in record
    order. *)

val to_json : t -> json

val of_json : json -> (t, string) result
(** Total: malformed documents yield [Error], never an exception. *)

val render : t -> string
(** Human-readable explanation: one block per application with its period
    provenance, one table row per actor, contenders and bounds inline. *)
