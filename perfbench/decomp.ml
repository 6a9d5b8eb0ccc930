(* One estimate taken apart into its layers, through their public entry
   points: the waiting-time evaluators ([Kernel.{wc,order,comp}_into]) on
   processor groups rebuilt from [Analysis.loads] and the mapping, then the
   period engine ([Kernel.period_into]) on each application's flattened
   [Sdf.Hsdf.expand] graph.  The group layout replicates
   [Analysis.estimate_periods_into]'s (groups in first-seen processor order,
   members in descending (app, actor) order), so the periods agree with it;
   each layer's self time is accumulated around its calls. *)

module Kernel = Contention.Kernel
module Analysis = Contention.Analysis

type t = {
  mapping : int array array;
  loads : Contention.Prob.t array array;
  exec : float array array;
  mcr : Kernel.graph array;
  ker : Kernel.scratch;
  active : int array;
  app_off : int array;
  slot : int array;
  group_of_proc : int array;
  gstart : int array;
  gcount : int array;
  gfill : int array;
  g_p : float array;
  g_mu : float array;
  g_tau : float array;
  g_wait : float array;
  resp : float array;
  mutable waiting_ns : int;  (** Group layout plus evaluator calls. *)
  mutable period_ns : int;
  mutable evals : int;  (** (use-case, estimator) evaluations. *)
  mutable groups : int;  (** Evaluator calls, one per processor group. *)
  mutable period_calls : int;
}

let flat_graph (a : Analysis.app) =
  let h = Sdf.Hsdf.expand a.graph in
  Kernel.graph ~nnodes:(Sdf.Hsdf.num_nodes h) ~name:a.graph.Sdf.Graph.name
    (Array.map
       (fun (e : Sdf.Hsdf.edge) ->
         (e.from_node, e.to_node, h.nodes.(e.from_node).Sdf.Hsdf.actor, e.delay))
       h.edges)

let create (apps : Analysis.app array) =
  let actors (a : Analysis.app) = Array.length a.mapping in
  let members = Array.fold_left (fun acc a -> acc + actors a) 0 apps in
  let procs =
    1 + Array.fold_left (fun acc (a : Analysis.app) -> Array.fold_left Int.max acc a.mapping) 0 apps
  in
  let max_actors = Array.fold_left (fun acc a -> Int.max acc (actors a)) 0 apps in
  let ker = Kernel.scratch () in
  Kernel.reserve_group ker members;
  let napps = Array.length apps in
  {
    mapping = Array.map (fun (a : Analysis.app) -> a.mapping) apps;
    loads = Array.map Analysis.loads apps;
    exec = Array.map (fun (a : Analysis.app) -> Sdf.Graph.exec_times a.graph) apps;
    mcr = Array.map flat_graph apps;
    ker;
    active = Array.make napps 0;
    app_off = Array.make napps 0;
    slot = Array.make members 0;
    group_of_proc = Array.make procs (-1);
    gstart = Array.make members 0;
    gcount = Array.make members 0;
    gfill = Array.make members 0;
    g_p = Array.make members 0.;
    g_mu = Array.make members 0.;
    g_tau = Array.make members 0.;
    g_wait = Array.make members 0.;
    resp = Array.make max_actors 0.;
    waiting_ns = 0;
    period_ns = 0;
    evals = 0;
    groups = 0;
    period_calls = 0;
  }

(* Waiting times of every member of the use-case; returns the number of
   active applications.  Fills [d.g_wait] through [d.slot]/[d.app_off]. *)
let waiting d est usecase =
  let nactive = ref 0 in
  for ai = 0 to Array.length d.mapping - 1 do
    if Contention.Usecase.mem ai usecase then begin
      d.active.(!nactive) <- ai;
      incr nactive
    end
  done;
  let nactive = !nactive in
  Array.fill d.group_of_proc 0 (Array.length d.group_of_proc) (-1);
  let ngroups = ref 0 and nmembers = ref 0 in
  for k = 0 to nactive - 1 do
    let m = d.mapping.(d.active.(k)) in
    d.app_off.(k) <- !nmembers;
    nmembers := !nmembers + Array.length m;
    for actor = 0 to Array.length m - 1 do
      let proc = m.(actor) in
      if d.group_of_proc.(proc) < 0 then begin
        d.group_of_proc.(proc) <- !ngroups;
        d.gcount.(!ngroups) <- 0;
        incr ngroups
      end;
      let g = d.group_of_proc.(proc) in
      d.gcount.(g) <- d.gcount.(g) + 1
    done
  done;
  let ngroups = !ngroups in
  let start = ref 0 in
  for g = 0 to ngroups - 1 do
    d.gstart.(g) <- !start;
    d.gfill.(g) <- 0;
    start := !start + d.gcount.(g)
  done;
  for k = nactive - 1 downto 0 do
    let ai = d.active.(k) in
    let m = d.mapping.(ai) in
    for actor = Array.length m - 1 downto 0 do
      let g = d.group_of_proc.(m.(actor)) in
      let s = d.gstart.(g) + d.gfill.(g) in
      d.gfill.(g) <- d.gfill.(g) + 1;
      d.slot.(d.app_off.(k) + actor) <- s;
      let l = d.loads.(ai).(actor) in
      d.g_p.(s) <- l.Contention.Prob.p;
      d.g_mu.(s) <- l.Contention.Prob.mu;
      d.g_tau.(s) <- l.Contention.Prob.tau
    done
  done;
  for g = 0 to ngroups - 1 do
    let off = d.gstart.(g) and n = d.gcount.(g) in
    match est with
    | Analysis.Worst_case -> Kernel.wc_into ~tau:d.g_tau ~off ~n ~out:d.g_wait
    | Analysis.Order order ->
        Kernel.order_into d.ker ~order ~p:d.g_p ~mu:d.g_mu ~off ~n ~out:d.g_wait
    | Analysis.Composability -> Kernel.comp_into d.ker ~p:d.g_p ~mu:d.g_mu ~off ~n ~out:d.g_wait
    | Analysis.Exact -> Kernel.exact_into d.ker ~p:d.g_p ~mu:d.g_mu ~off ~n ~out:d.g_wait
  done;
  d.groups <- d.groups + ngroups;
  nactive

(* One timed evaluation: the period of the [k]-th active application goes
   to [out.(k)]; returns the number of active applications. *)
let eval d est usecase ~out =
  let t0 = Common.now () in
  let nactive = waiting d est usecase in
  d.waiting_ns <- d.waiting_ns + (Common.now () - t0);
  for k = 0 to nactive - 1 do
    let ai = d.active.(k) in
    let exec = d.exec.(ai) in
    for actor = 0 to Array.length exec - 1 do
      d.resp.(actor) <- exec.(actor) +. d.g_wait.(d.slot.(d.app_off.(k) + actor))
    done;
    let t1 = Common.now () in
    Kernel.period_into d.ker d.mcr.(ai) ~exec:d.resp ~exec_off:0 ~out ~out_idx:k;
    d.period_ns <- d.period_ns + (Common.now () - t1)
  done;
  d.period_calls <- d.period_calls + nactive;
  d.evals <- d.evals + 1;
  nactive

let layer_ns d = float_of_int (d.waiting_ns + d.period_ns)

let metrics d =
  let per x n = if n = 0 then 0. else float_of_int x /. float_of_int n in
  Common.
    [
      metric "waiting.ns_per_usecase" "ns" (per d.waiting_ns d.evals)
        ~prov:[ ("evaluations", int d.evals) ];
      metric "period.ns_per_call" "ns" (per d.period_ns d.period_calls)
        ~prov:[ ("calls", int d.period_calls) ];
    ]
