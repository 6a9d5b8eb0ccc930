type requirement = { min_throughput : float }

let best_effort = { min_throughput = 0. }

type margin_spec = {
  confidence : float;
  method_ : Margin.method_;
  samples : int;
  seed : int64;
}

let default_margin_spec =
  { confidence = 0.95; method_ = Margin.Z_score; samples = 200; seed = 0x6d617267696eL }

type verdict =
  | Admitted of { period : float; margin : Margin.t option }
  | Rejected_candidate of { estimated : float; required : float }
  | Rejected_victim of { app : string; estimated : float; required : float }

type counters = {
  joins : int;
  leaves : int;
  observes : int;
  incremental_ops : int;
  full_rebuilds : int;
  drift_refolds : int;
  group_rebuilds : int;
  group_drift_refolds : int;
}

type entry = {
  app : Analysis.app;
  mcr : Kernel.graph;
      (* the app's HSDF expansion flattened for the period engine, built once
         at admission: it depends on topology only, never on loads *)
  req : requirement;
  mutable loads : Prob.t array;
  mutable measured : float option;
  mutable ids : int array;  (* per-actor member id in its processor group *)
}

type t = {
  nprocs : int;
  aggregates : Compose.t array;  (* one per processor, all admitted actors *)
  groups : Kernel.Group.t array;
      (* one per processor: the same population with its symmetric-polynomial
         basis maintained incrementally (⊕ on admit, ⊖ on withdraw, O(n)
         update on observe), backing the Eq. 4 estimators of
         {!estimated_period_via} without per-query rebuilds *)
  refold_bound : float;
  agg_drift : float array;
      (* per-processor accumulated second-order ⊖ error of the w-aggregate;
         a refold is forced when it crosses [refold_bound] *)
  ker : Kernel.scratch;  (* period-engine buffers, shared by every query *)
  mutable resp : float array;  (* per-actor response times of one query *)
  period_out : float array;  (* the engine's one-slot result *)
  mutable next_id : int;
  mutable entries : (string * entry) list;
  mutable joins : int;
  mutable leaves : int;
  mutable observes_n : int;
  mutable incremental_ops : int;
  mutable full_rebuilds : int;
  mutable drift_refolds : int;
}

let create ?(refold_bound = 0.05) ?(group_drift_bound = 1e-6) ~procs () =
  if procs < 1 then invalid_arg "Contention.Admission.create: procs < 1";
  if not (refold_bound > 0.) then
    invalid_arg "Contention.Admission.create: non-positive refold bound";
  {
    nprocs = procs;
    aggregates = Array.make procs Compose.empty;
    groups =
      Array.init procs (fun _ ->
          Kernel.Group.create ~drift_bound:group_drift_bound ());
    refold_bound;
    agg_drift = Array.make procs 0.;
    ker = Kernel.scratch ();
    resp = Array.make 16 0.;
    period_out = [| 0. |];
    next_id = 0;
    entries = [];
    joins = 0;
    leaves = 0;
    observes_n = 0;
    incremental_ops = 0;
    full_rebuilds = 0;
    drift_refolds = 0;
  }

let procs t = t.nprocs

let admitted t = List.map (fun (name, e) -> (name, e.app, e.req)) t.entries

let counters t =
  {
    joins = t.joins;
    leaves = t.leaves;
    observes = t.observes_n;
    incremental_ops = t.incremental_ops;
    full_rebuilds = t.full_rebuilds;
    drift_refolds = t.drift_refolds;
    group_rebuilds =
      Array.fold_left (fun acc g -> acc + Kernel.Group.rebuilds g) 0 t.groups;
    group_drift_refolds =
      Array.fold_left (fun acc g -> acc + Kernel.Group.drift_refolds g) 0 t.groups;
  }

(* The response buffer, grown to hold one entry per actor of [e]. *)
let resp_buffer t (e : entry) =
  let na = Sdf.Graph.num_actors e.app.Analysis.graph in
  if Array.length t.resp < na then t.resp <- Array.make na 0.;
  t.resp

(* The period of [e] when its actors' response times are [resp.(0..na-1)],
   on the kernel engine over the entry's flattened expansion: bit-identical
   to the list-based period of [Sdf.Graph.with_exec_times g resp], whose
   rejection of a non-positive or non-finite time is kept. *)
let period_of t (e : entry) resp =
  let g = e.app.Analysis.graph in
  for actor = 0 to Sdf.Graph.num_actors g - 1 do
    if not (resp.(actor) > 0. && Float.is_finite resp.(actor)) then
      invalid_arg
        (Printf.sprintf "Sdf.Graph.with_exec_times: non-positive time %g for %S"
           resp.(actor) (Sdf.Graph.actor g actor).name)
  done;
  Kernel.period_into t.ker e.mcr ~exec:resp ~exec_off:0 ~out:t.period_out
    ~out_idx:0;
  t.period_out.(0)

(* Per-actor response times of [e], written to [out], when the
   per-processor aggregates are [aggregates] and the admitted population is
   [entries]; each actor's waiting time is the aggregate minus its own
   contribution (the O(1)-per-actor inverse path, Eq. 8-9).  The inverse is
   undefined for a saturated actor (P = 1, noted in the paper); those fall
   back to folding the other co-mapped actors directly. *)
let responses_into entries aggregates (e : entry) ~out =
  let g = e.app.Analysis.graph in
  let fold_others proc actor =
    let contribution acc (name, other) =
      Array.fold_left
        (fun (acc, idx) load ->
          let same = name = g.Sdf.Graph.name && idx = actor in
          let acc =
            if (not same) && other.app.Analysis.mapping.(idx) = proc then
              Compose.combine acc (Compose.of_load load)
            else acc
          in
          (acc, idx + 1))
        (acc, 0) other.loads
      |> fst
    in
    List.fold_left contribution Compose.empty entries
  in
  for actor = 0 to Sdf.Graph.num_actors g - 1 do
    let proc = e.app.Analysis.mapping.(actor) in
    let own = Compose.of_load e.loads.(actor) in
    let rest =
      if own.Compose.p < 1. then Compose.remove ~total:aggregates.(proc) own
      else fold_others proc actor
    in
    out.(actor) <- (Sdf.Graph.actor g actor).exec_time +. rest.Compose.w
  done

let period_under t entries aggregates (e : entry) =
  let resp = resp_buffer t e in
  responses_into entries aggregates e ~out:resp;
  period_of t e resp

(* ------------------------------------------------------------------ *)
(* Confidence margins *)

(* The execution-time distribution behind an actor's load: the declared one
   when the application uses the Section 6 extension, else the paper's
   constant base model (whose residual life is uniform on [0, tau]). *)
let dist_of (e : entry) actor =
  match e.app.Analysis.distributions with
  | Some ds -> ds.(actor)
  | None ->
      Dist.Constant (Sdf.Graph.actor e.app.Analysis.graph actor).exec_time

(* Variance of one actor's blocking contribution B = Bernoulli(p) · R with
   R the residual life: E B² − (E B)² = p·E R² − (p·E R)². *)
let contribution_variance (e : entry) actor (l : Prob.t) =
  let r2 = Dist.residual_second_moment (dist_of e actor) in
  Float.max 0. ((l.p *. r2) -. ((l.p *. l.mu) *. (l.p *. l.mu)))

let margin_z t entries aggregates (e : entry) ~period ~confidence =
  let g = e.app.Analysis.graph in
  let na = Sdf.Graph.num_actors g in
  let z = Margin.z_of_confidence confidence in
  (* Per-processor variance of the total inflicted wait: the contenders
     block independently, so the variances add. *)
  let var = Array.make t.nprocs 0. in
  List.iter
    (fun (_, o) ->
      Array.iteri
        (fun actor load ->
          let proc = o.app.Analysis.mapping.(actor) in
          var.(proc) <- var.(proc) +. contribution_variance o actor load)
        o.loads)
    entries;
  let responses = resp_buffer t e in
  responses_into entries aggregates e ~out:responses;
  let resp_lo = Array.make na 0. and resp_hi = Array.make na 0. in
  for actor = 0 to na - 1 do
    let proc = e.app.Analysis.mapping.(actor) in
    let own = contribution_variance e actor e.loads.(actor) in
    let std = sqrt (Float.max 0. (var.(proc) -. own)) in
    let exec = (Sdf.Graph.actor g actor).exec_time in
    let wait = Float.max 0. (responses.(actor) -. exec) in
    resp_lo.(actor) <- exec +. Float.max 0. (wait -. (z *. std));
    resp_hi.(actor) <- exec +. wait +. (z *. std)
  done;
  let lo = period_of t e resp_lo in
  let hi = period_of t e resp_hi in
  (* The two periods are bisection results, each within 1e-9 of its
     ratio: when the spread is that small they can come out in either
     order, which is no interval error. *)
  Margin.of_bounds ~confidence ~period ~lo:(Float.min lo hi) ~hi

let margin_quantile t entries (e : entry) ~period ~confidence ~samples ~seed =
  if samples < 1 then
    invalid_arg "Contention.Admission: margin samples < 1";
  let g = e.app.Analysis.graph in
  let na = Sdf.Graph.num_actors g in
  (* Flatten the population once: every admitted actor is one independent
     blocking source; the candidate's own actors are remembered so each can
     subtract its own contribution from its processor total. *)
  let procs_of = ref [] and ps = ref [] and dists = ref [] in
  let npop = ref 0 in
  let own_slot = Array.make na (-1) in
  List.iter
    (fun (name, o) ->
      Array.iteri
        (fun actor (l : Prob.t) ->
          procs_of := o.app.Analysis.mapping.(actor) :: !procs_of;
          ps := l.p :: !ps;
          dists := dist_of o actor :: !dists;
          if name = g.Sdf.Graph.name then own_slot.(actor) <- !npop;
          incr npop)
        o.loads)
    entries;
  let npop = !npop in
  let proc_of = Array.of_list (List.rev !procs_of) in
  let p_of = Array.of_list (List.rev !ps) in
  let dist_of_slot = Array.of_list (List.rev !dists) in
  let rng = Margin.Rng.create seed in
  let totals = Array.make t.nprocs 0. in
  let contrib = Array.make (Int.max 1 npop) 0. in
  let resp = Array.make na 0. in
  let periods =
    Array.init samples (fun _ ->
        Array.fill totals 0 t.nprocs 0.;
        for j = 0 to npop - 1 do
          let u0 = Margin.Rng.uniform rng in
          let u1 = Margin.Rng.uniform rng in
          let u2 = Margin.Rng.uniform rng in
          let c =
            if u0 < p_of.(j) then
              Dist.residual_sample dist_of_slot.(j) ~u1 ~u2
            else 0.
          in
          contrib.(j) <- c;
          totals.(proc_of.(j)) <- totals.(proc_of.(j)) +. c
        done;
        for actor = 0 to na - 1 do
          let proc = e.app.Analysis.mapping.(actor) in
          let own = if own_slot.(actor) >= 0 then contrib.(own_slot.(actor)) else 0. in
          resp.(actor) <-
            (Sdf.Graph.actor g actor).exec_time
            +. Float.max 0. (totals.(proc) -. own)
        done;
        period_of t e resp)
  in
  Margin.of_samples ~confidence ~period periods

let compute_margin t entries aggregates (e : entry) ~period spec =
  match spec.method_ with
  | Margin.Z_score ->
      margin_z t entries aggregates e ~period ~confidence:spec.confidence
  | Margin.Quantile ->
      margin_quantile t entries e ~period ~confidence:spec.confidence
        ~samples:spec.samples ~seed:spec.seed

(* ------------------------------------------------------------------ *)
(* Aggregate maintenance *)

let add_loads aggregates (e : entry) =
  let updated = Array.copy aggregates in
  Array.iteri
    (fun actor load ->
      let proc = e.app.Analysis.mapping.(actor) in
      updated.(proc) <- Compose.combine updated.(proc) (Compose.of_load load))
    e.loads;
  updated

(* Keep the per-processor incremental groups in lockstep with [entries]. *)
let groups_admit t (e : entry) =
  e.ids <-
    Array.mapi
      (fun actor (l : Prob.t) ->
        let id = t.next_id in
        t.next_id <- t.next_id + 1;
        Kernel.Group.add t.groups.(e.app.Analysis.mapping.(actor)) ~id ~p:l.p
          ~mu:l.mu ~tau:l.tau;
        id)
      e.loads

let groups_withdraw t (e : entry) =
  Array.iteri
    (fun actor id ->
      Kernel.Group.remove t.groups.(e.app.Analysis.mapping.(actor)) ~id)
    e.ids;
  e.ids <- [||]

let groups_update t (e : entry) =
  Array.iteri
    (fun actor (l : Prob.t) ->
      Kernel.Group.update
        t.groups.(e.app.Analysis.mapping.(actor))
        ~id:e.ids.(actor) ~p:l.p ~mu:l.mu ~tau:l.tau)
    e.loads

(* One processor's aggregate refolded from the population in insertion
   order — O(resident actors), not O(n²). *)
let fold_proc t proc =
  List.fold_left
    (fun acc (_, e) ->
      let acc = ref acc in
      Array.iteri
        (fun actor load ->
          if e.app.Analysis.mapping.(actor) = proc then
            acc := Compose.combine !acc (Compose.of_load load))
        e.loads;
      !acc)
    Compose.empty (List.rev t.entries)

let refold_proc t proc =
  t.aggregates.(proc) <- fold_proc t proc;
  t.agg_drift.(proc) <- 0.;
  t.drift_refolds <- t.drift_refolds + 1

let drift_check t =
  for proc = 0 to t.nprocs - 1 do
    if t.agg_drift.(proc) > t.refold_bound then refold_proc t proc
  done

let try_admit ?margin t app req =
  let name = app.Analysis.graph.Sdf.Graph.name in
  if List.mem_assoc name t.entries then
    invalid_arg (Printf.sprintf "Contention.Admission: %S already admitted" name);
  Array.iter
    (fun proc ->
      if proc < 0 || proc >= t.nprocs then
        invalid_arg
          (Printf.sprintf "Contention.Admission: %S maps to processor %d" name proc))
    app.Analysis.mapping;
  let candidate =
    {
      app;
      mcr = Analysis.kernel_graph app.Analysis.graph;
      req;
      loads = Analysis.loads app;
      measured = None;
      ids = [||];
    }
  in
  let tentative = add_loads t.aggregates candidate in
  let population = (name, candidate) :: t.entries in
  let candidate_period = period_under t population tentative candidate in
  let candidate_tp = 1. /. candidate_period in
  if candidate_tp < req.min_throughput then
    Rejected_candidate { estimated = candidate_tp; required = req.min_throughput }
  else
    let victim =
      List.find_map
        (fun (vname, e) ->
          (* A best-effort application has no requirement to violate, so it
             can never be a victim — skipping it keeps the scan proportional
             to the number of guaranteed applications under heavy churn. *)
          if e.req.min_throughput <= 0. then None
          else
            let tp = 1. /. period_under t population tentative e in
            if tp < e.req.min_throughput then
              Some (Rejected_victim
                      { app = vname; estimated = tp; required = e.req.min_throughput })
            else None)
        t.entries
    in
    match victim with
    | Some verdict -> verdict
    | None ->
        let margin =
          match margin with
          | None -> None
          | Some spec ->
              Some
                (compute_margin t population tentative candidate
                   ~period:candidate_period spec)
        in
        Array.blit tentative 0 t.aggregates 0 t.nprocs;
        t.entries <- (name, candidate) :: t.entries;
        groups_admit t candidate;
        t.joins <- t.joins + 1;
        t.incremental_ops <- t.incremental_ops + Array.length candidate.loads;
        Admitted { period = candidate_period; margin }

let find t name =
  match List.assoc_opt name t.entries with
  | Some e -> e
  | None -> raise Not_found

let rebuild_aggregates t =
  Array.fill t.aggregates 0 t.nprocs Compose.empty;
  List.iter
    (fun (_, e) ->
      let updated = add_loads t.aggregates e in
      Array.blit updated 0 t.aggregates 0 t.nprocs)
    (List.rev t.entries);
  Array.fill t.agg_drift 0 t.nprocs 0.

let withdraw t name =
  let e = find t name in
  (* The ⊗ fold is only second-order associative, so ⊖ is exact only when
     undone LIFO: for the most recently admitted application the round-trip
     is exact; for older ones it is exact in p and second-order accurate in
     w, and the accumulated error is traded for a refold at the bound. *)
  let lifo = match t.entries with (n, _) :: _ -> n = name | [] -> false in
  t.entries <- List.remove_assoc name t.entries;
  groups_withdraw t e;
  t.leaves <- t.leaves + 1;
  let invertible = Array.for_all (fun (l : Prob.t) -> l.p < 1.) e.loads in
  if invertible then begin
    for actor = Array.length e.loads - 1 downto 0 do
      let proc = e.app.Analysis.mapping.(actor) in
      let l = e.loads.(actor) in
      t.aggregates.(proc) <-
        Compose.remove ~total:t.aggregates.(proc) (Compose.of_load l);
      t.incremental_ops <- t.incremental_ops + 1;
      (* The ⊗ residue the non-LIFO inverse cannot see is third order: the
         removed element's cross terms with the whole remaining fold, so
         charge p·P_rest/4 relative in w (P_rest is the surviving
         aggregate's blocking probability, not just one co-element's). *)
      if not lifo then
        t.agg_drift.(proc) <-
          t.agg_drift.(proc) +. (0.25 *. l.p *. t.aggregates.(proc).Compose.p)
    done;
    drift_check t
  end
  else begin
    (* A saturated actor has no inverse (Eq. 8 needs P <> 1); rebuild the
       aggregates from the remaining population instead. *)
    rebuild_aggregates t;
    t.full_rebuilds <- t.full_rebuilds + 1
  end

let release t name =
  match List.assoc_opt name t.entries with
  | None -> Error (Printf.sprintf "application %S is not admitted" name)
  | Some _ ->
      withdraw t name;
      Ok ()

let observe t name ~measured_period =
  if not (measured_period > 0. && Float.is_finite measured_period) then
    invalid_arg "Contention.Admission.observe: non-positive period";
  let e = find t name in
  e.measured <- Some measured_period;
  let old_loads = e.loads in
  let new_loads = Analysis.loads_at_period e.app ~period:measured_period in
  e.loads <- new_loads;
  t.observes_n <- t.observes_n + 1;
  (* The kernel groups keep per-member state, so each actor is an O(n)
     deconvolve/refold delta. *)
  groups_update t e;
  let invertible = Array.for_all (fun (l : Prob.t) -> l.p < 1.) old_loads in
  if invertible then begin
    (* Re-base each actor incrementally: ⊖ the old contribution, ⊕ the new
       one — the aggregates never see a from-scratch refold on this path. *)
    Array.iteri
      (fun actor (l0 : Prob.t) ->
        let proc = e.app.Analysis.mapping.(actor) in
        let without =
          Compose.remove ~total:t.aggregates.(proc) (Compose.of_load l0)
        in
        t.aggregates.(proc) <-
          Compose.combine without (Compose.of_load new_loads.(actor));
        t.incremental_ops <- t.incremental_ops + 1;
        (* Same third-order residue bound as the withdraw path. *)
        t.agg_drift.(proc) <-
          t.agg_drift.(proc)
          +. (0.25 *. l0.p *. t.aggregates.(proc).Compose.p))
      old_loads;
    drift_check t
  end
  else begin
    rebuild_aggregates t;
    t.full_rebuilds <- t.full_rebuilds + 1
  end

let observed_period t name = (find t name).measured

let estimated_period t name =
  period_under t t.entries t.aggregates (find t name)
let estimated_throughput t name = 1. /. estimated_period t name

let margin_for t spec name =
  let e = find t name in
  let period = period_under t t.entries t.aggregates e in
  compute_margin t t.entries t.aggregates e ~period spec

let estimated_period_via t est name =
  match (est : Analysis.estimator) with
  | Analysis.Composability ->
      (* The aggregate/inverse path IS the composability estimator. *)
      estimated_period t name
  | _ ->
      let e = find t name in
      let g = e.app.Analysis.graph in
      let resp = resp_buffer t e in
      for actor = 0 to Sdf.Graph.num_actors g - 1 do
        let group = t.groups.(e.app.Analysis.mapping.(actor)) in
        let excluding = Some e.ids.(actor) in
        let waiting =
          match est with
          | Analysis.Worst_case -> Kernel.Group.wc_waiting group ~excluding
          | Analysis.Order m -> Kernel.Group.order_waiting group ~order:m ~excluding
          | Analysis.Exact -> Kernel.Group.exact_waiting group ~excluding
          | Analysis.Composability -> assert false
        in
        resp.(actor) <- (Sdf.Graph.actor g actor).exec_time +. waiting
      done;
      period_of t e resp

let estimated_throughput_via t est name = 1. /. estimated_period_via t est name

(* ------------------------------------------------------------------ *)
(* Introspection for the churn oracle *)

let check_proc t proc name =
  if proc < 0 || proc >= t.nprocs then
    invalid_arg (Printf.sprintf "Contention.Admission.%s: unknown processor %d" name proc)

let aggregate t ~proc =
  check_proc t proc "aggregate";
  t.aggregates.(proc)

let refolded_aggregate t ~proc =
  check_proc t proc "refolded_aggregate";
  fold_proc t proc

let aggregate_drift t ~proc =
  check_proc t proc "aggregate_drift";
  t.agg_drift.(proc)

let group t ~proc =
  check_proc t proc "group";
  t.groups.(proc)
