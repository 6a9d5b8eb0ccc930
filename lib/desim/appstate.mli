(** Per-application dataflow state of the preemptive TDMA engine
    ({!Preemptive}): token counts, firing counts, iteration bookkeeping and
    per-processor busy time.  {!Engine} shares only the [app]/[result] types
    and {!validate}; it keeps its own flat state over all applications. *)

type app = {
  graph : Sdf.Graph.t;
  mapping : int array;  (** [mapping.(actor_id)] is the processor id. *)
}

type result = {
  app_name : string;
  iterations : int;
  avg_period : float;
  max_period : float;
  min_period : float;
  busy_time : float array;
}

type t = {
  app : app;
  q : int array;  (** Repetition vector. *)
  in_idx : int list array;  (** Channel indices feeding each actor. *)
  tokens : int array;  (** Current token count per channel. *)
  fires : int array;  (** Completed firings per actor. *)
  busy : float array;  (** Busy time attributed to this app, per processor. *)
  mutable iterations : int;
  mutable last_completion : float;
  mutable kept_first : float;
  mutable kept_count : int;
  mutable max_gap : float;
  mutable min_gap : float;
}

val validate : procs:int -> index:int -> app -> unit
(** @raise Invalid_argument on a mapping of the wrong length or one that
    targets a processor outside [\[0, procs)]. *)

val make : procs:int -> app -> t
(** @raise Invalid_argument if the graph is inconsistent. *)

val tokens_enabled : t -> int -> bool
(** Whether every input channel of the actor holds enough tokens.  Engines
    add their own "not already running/queued" condition. *)

val consume_inputs : t -> int -> unit
(** Remove the consumption rates from the actor's input channels — called
    when a firing starts. *)

val finish_firing : t -> warmup:int -> actor:int -> time:float -> unit
(** Produce the actor's output tokens, count the firing, and record an
    iteration boundary when the reference actor (id 0) completes its
    [q.(0)]-th firing — excluding the first [warmup] iterations from the
    period statistics. *)

val output_consumers : t -> int -> int list
(** Destination actors of the actor's output channels (with duplicates
    when parallel channels exist — harmless for enabling checks). *)

val result : t -> result
