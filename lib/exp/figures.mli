(** Rendering of the paper's evaluation artefacts (Figure 5, Table 1,
    Figure 6) from workload and sweep data. *)

type fig5 = {
  app_names : string array;
  (* All series are periods normalised to each application's isolation
     period, matching the paper's Figure 5 y-axis. *)
  series : (string * float array) list;
      (** In the paper's legend order: Analyzed Worst Case, Probabilistic
          Fourth Order, Probabilistic Second Order, Composability-based,
          Simulated, Simulated Worst Case, Original. *)
}

val fig5 : ?horizon:float -> Workload.t -> fig5
(** Runs the maximum-contention use-case (all applications concurrent)
    through the simulator and every estimator. *)

val render_fig5 : fig5 -> string
(** Table plus grouped bar chart. *)

type table1_row = {
  method_name : string;
  throughput_pct : float;
  period_pct : float;
  complexity : string;  (** The paper's complexity column, e.g. ["O(n^2)"]. *)
}

val table1 : Sweep.t -> table1_row list
(** Mean absolute inaccuracy versus simulation over the sweep, in the paper's
    row order (Worst Case, Composability, Fourth Order, Second Order). *)

val render_table1 : table1_row list -> string

type fig6 = {
  sizes : float array;  (** Number of concurrently executing applications. *)
  inaccuracy : (string * float array) list;  (** Period inaccuracy per method. *)
}

val fig6 : Sweep.t -> fig6
val render_fig6 : fig6 -> string
(** Data table plus ASCII line chart. *)

val render_timing : Sweep.t -> string
(** Wall-clock comparison of the sweep's simulation versus analysis time —
    the paper's "minutes versus 23 hours" claim, measured on this machine.
    Each estimator's ratio has one decimal and reads "slower" when analysis
    took longer than simulation. *)

val complexity_of : Contention.Analysis.estimator -> string
