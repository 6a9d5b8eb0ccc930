type estimator = Worst_case | Order of int | Composability | Exact

let estimator_name = function
  | Worst_case -> "worst-case"
  | Order 2 -> "second-order"
  | Order 4 -> "fourth-order"
  | Order m -> Printf.sprintf "order-%d" m
  | Composability -> "composability"
  | Exact -> "exact"

let all_paper_estimators = [ Worst_case; Order 4; Order 2; Composability ]

type period_engine = Mcm | Statespace

type app = {
  graph : Sdf.Graph.t;
  mapping : Mapping.t;
  repetition : int array;
  isolation_period : float;
  distributions : Dist.t array option;
}

let app ?period ?procs ?distributions graph ~mapping =
  (match procs with
  | Some procs -> Mapping.validate ~procs graph mapping
  | None ->
      if Array.length mapping <> Sdf.Graph.num_actors graph then
        invalid_arg "Contention.Analysis.app: mapping length mismatch");
  let graph =
    match distributions with
    | None -> graph
    | Some dists ->
        if Array.length dists <> Sdf.Graph.num_actors graph then
          invalid_arg "Contention.Analysis.app: distributions length mismatch";
        Array.iter Dist.validate dists;
        (* Throughput computations run on the mean execution times. *)
        Sdf.Graph.with_exec_times graph (Array.map Dist.mean dists)
  in
  let repetition = Sdf.Repetition.compute_exn graph in
  let isolation_period =
    match period with Some p -> p | None -> Sdf.Statespace.period_exn graph
  in
  if isolation_period <= 0. then
    invalid_arg "Contention.Analysis.app: non-positive period";
  { graph; mapping; repetition; isolation_period; distributions }

let loads_with_period a period =
  Array.init (Sdf.Graph.num_actors a.graph) (fun i ->
      match a.distributions with
      | Some dists ->
          Prob.of_distribution ~dist:dists.(i) ~repetitions:a.repetition.(i) ~period
      | None ->
          Prob.of_actor
            ~exec_time:(Sdf.Graph.actor a.graph i).exec_time
            ~repetitions:a.repetition.(i) ~period)

let loads a = loads_with_period a a.isolation_period

let loads_at_period a ~period =
  if period <= 0. then invalid_arg "Contention.Analysis.loads_at_period: period <= 0";
  loads_with_period a period

type estimate = {
  for_app : app;
  waiting_times : float array;
  response_times : float array;
  period : float;
}

let throughput e = 1. /. e.period

let adjusted_graph e = Sdf.Graph.with_exec_times e.for_app.graph e.response_times

let contended_metrics e = Sdf.Metrics.analyse (adjusted_graph e)

let waiting_time_for est others =
  match est with
  | Worst_case -> Wcrt.waiting_time others
  | Order m -> Approx.waiting_time ~order:m others
  | Composability -> Compose.waiting_time others
  | Exact -> Exact.waiting_time others

type cache = {
  cached_loads : Prob.t array;
  expansion : Sdf.Hsdf.t;
  cached_exec : float array;  (* per-actor execution times, flat *)
  mcr : Kernel.graph;  (* the expansion flattened for the kernel engine *)
}

(* The kernel engine's period search reads the expansion as flat edge arrays;
   the weight of an edge is the response time of its source node's actor, so
   each edge carries that actor index. *)
let flatten_expansion (h : Sdf.Hsdf.t) =
  Kernel.graph
    ~nnodes:(Sdf.Hsdf.num_nodes h)
    ~name:h.source.Sdf.Graph.name
    (Array.map
       (fun (e : Sdf.Hsdf.edge) ->
         (e.from_node, e.to_node, h.nodes.(e.from_node).Sdf.Hsdf.actor, e.delay))
       h.edges)

let prepare a =
  Obs.Span.with_ ~name:"analysis.prepare"
    ~args:(fun () -> [ ("app", a.graph.Sdf.Graph.name) ])
    (fun () ->
      let cached_loads =
        Obs.Span.with_ ~name:"analysis.loads" (fun () -> loads a)
      in
      let expansion =
        Obs.Span.with_ ~name:"hsdf.expand" (fun () -> Sdf.Hsdf.expand a.graph)
      in
      {
        cached_loads;
        expansion;
        cached_exec = Sdf.Graph.exec_times a.graph;
        mcr = flatten_expansion expansion;
      })

let kernel_graph g = flatten_expansion (Sdf.Hsdf.expand g)

(* Period of [a] with response times as execution times.  A cached HSDF
   expansion short-circuits the expensive part of the MCM engine: the
   expansion topology is execution-time-invariant, only the node weights
   change between passes. *)
let compute_period engine expansion (a : app) response_times =
  match (engine, expansion) with
  | Mcm, Some h -> Sdf.Hsdf.period_of_expansion h ~exec_times:response_times
  | Mcm, None -> Sdf.Hsdf.period (Sdf.Graph.with_exec_times a.graph response_times)
  | Statespace, _ ->
      Sdf.Statespace.period_exn (Sdf.Graph.with_exec_times a.graph response_times)

(* One pass of the Figure 4 algorithm given per-app loads. *)
let one_pass engine est (apps : app array) (app_loads : Prob.t array array)
    (expansions : Sdf.Hsdf.t option array) =
  (* Node occupancy: which (app, actor) pairs share each processor. *)
  let by_node = Hashtbl.create 16 in
  Array.iteri
    (fun ai a ->
      Array.iteri
        (fun actor proc ->
          let existing = Option.value ~default:[] (Hashtbl.find_opt by_node proc) in
          Hashtbl.replace by_node proc ((ai, actor) :: existing))
        a.mapping)
    apps;
  let span_args a () = [ ("app", a.graph.Sdf.Graph.name); ("estimator", estimator_name est) ] in
  let estimate_one ai a =
    let n = Sdf.Graph.num_actors a.graph in
    (* Eq. 4/5/6: blocking probabilities folded into per-actor waits. *)
    let waiting_times =
      Obs.Span.with_ ~name:"analysis.waiting" ~args:(span_args a) (fun () ->
          Array.init n (fun actor ->
              let proc = a.mapping.(actor) in
              let on_node = Option.value ~default:[] (Hashtbl.find_opt by_node proc) in
              let others =
                List.filter_map
                  (fun (aj, actor_j) ->
                    if aj = ai && actor_j = actor then None
                    else Some app_loads.(aj).(actor_j))
                  on_node
              in
              waiting_time_for est others))
    in
    let response_times =
      Array.init n (fun actor ->
          (Sdf.Graph.actor a.graph actor).exec_time +. waiting_times.(actor))
    in
    let period =
      Obs.Span.with_ ~name:"analysis.period" ~args:(span_args a) (fun () ->
          compute_period engine expansions.(ai) a response_times)
    in
    { for_app = a; waiting_times; response_times; period }
  in
  Array.mapi estimate_one apps

let expansions_for engine apps =
  match engine with
  | Mcm -> Array.map (fun (a : app) -> Some (Sdf.Hsdf.expand a.graph)) apps
  | Statespace -> Array.map (fun _ -> None) apps

let estimate_args est n () =
  [ ("estimator", estimator_name est); ("apps", string_of_int n) ]

let estimate ?(engine = Mcm) ?(iterations = 1) est apps =
  if iterations < 1 then invalid_arg "Contention.Analysis.estimate: iterations < 1";
  match apps with
  | [] -> []
  | apps ->
      Obs.Span.with_ ~name:"analysis.estimate"
        ~args:(estimate_args est (List.length apps))
        (fun () ->
          let apps = Array.of_list apps in
          let expansions = expansions_for engine apps in
          let rec refine pass loads_now =
            let results = one_pass engine est apps loads_now expansions in
            if pass >= iterations then results
            else
              (* Fixed-point refinement: blocking probabilities from the newly
                 estimated periods (execution times stay the original tau). *)
              let next =
                Array.mapi (fun ai a -> loads_with_period a results.(ai).period) apps
              in
              refine (pass + 1) next
          in
          Array.to_list (refine 1 (Array.map loads apps)))

let estimate_prepared_reference ?(engine = Mcm) est pairs =
  match pairs with
  | [] -> []
  | pairs ->
      Obs.Span.with_ ~name:"analysis.estimate"
        ~args:(estimate_args est (List.length pairs))
        (fun () ->
          let apps = Array.of_list (List.map fst pairs) in
          let caches = Array.of_list (List.map snd pairs) in
          Array.iteri
            (fun i (a : app) ->
              if Array.length caches.(i).cached_loads <> Sdf.Graph.num_actors a.graph then
                invalid_arg "Contention.Analysis.estimate_prepared: cache/app mismatch")
            apps;
          let loads = Array.map (fun c -> c.cached_loads) caches in
          let expansions =
            match engine with
            | Mcm -> Array.map (fun c -> Some c.expansion) caches
            | Statespace -> Array.map (fun _ -> None) caches
          in
          Array.to_list (one_pass engine est apps loads expansions))

(* ------------------------------------------------------------------ *)
(* Kernel engine: the Figure-4 pass over preallocated flat arrays.

   The reference path above allocates per use-case (occupancy Hashtbl,
   contender lists, per-probe shifted-edge arrays in {!Sdf.Mcm}); the kernel
   path lays the use-case's actors out as contiguous per-processor member
   slots in a reusable {!workspace} and evaluates the {!Kernel} estimators
   over them.  Results are bit-identical to the reference — {!Kernel}
   replicates the floating-point operation sequences — which [exact_check]
   and the fuzzing oracle verify. *)

type workspace = {
  ker : Kernel.scratch;
  mutable group_of_proc : int array;  (* processor id -> group index this pass *)
  mutable gstart : int array;  (* per group: first member slot *)
  mutable gcount : int array;
  mutable gfill : int array;
  mutable app_off : int array;  (* per active app: base of its member range *)
  mutable slot : int array;  (* app_off + actor -> member slot *)
  mutable active : int array;  (* use-case's app indices, ascending *)
  mutable g_p : float array;  (* per member slot: blocking probability *)
  mutable g_mu : float array;
  mutable g_tau : float array;
  mutable g_wait : float array;
  mutable resp : float array;  (* one app's response times *)
  mutable periods : float array;
  r : int array;  (* int registers: counters without ref-cell boxing *)
}

let grow_f a n =
  if Array.length a < n then Array.make (Int.max n (2 * Array.length a)) 0. else a

let grow_i a n =
  if Array.length a < n then Array.make (Int.max n (2 * Array.length a)) 0 else a

let workspace () =
  {
    ker = Kernel.scratch ();
    group_of_proc = Array.make 16 0;
    gstart = Array.make 16 0;
    gcount = Array.make 16 0;
    gfill = Array.make 16 0;
    app_off = Array.make 16 0;
    slot = Array.make 64 0;
    active = Array.make 16 0;
    g_p = Array.make 64 0.;
    g_mu = Array.make 64 0.;
    g_tau = Array.make 64 0.;
    g_wait = Array.make 64 0.;
    resp = Array.make 32 0.;
    periods = Array.make 16 0.;
    r = Array.make 8 0;
  }

let workspace_key = Domain.DLS.new_key workspace
let shared_workspace () = Domain.DLS.get workspace_key

(* One Figure-4 pass on the kernel engine.  [active] lists the indices of the
   use-case's applications into [apps]/[caches] in ascending order (the order
   the reference receives its pairs in); the period of [active.(k)] is
   written to [out.(k)], the per-actor waits stay in [ws.g_wait] addressed
   through [ws.slot]/[ws.app_off].  Allocation-free once [ws] has grown to
   the workload's high-water mark. *)
let kernel_pass ws est (apps : app array) (caches : cache array)
    (active : int array) nactive ~(out : float array) =
  (* Member layout: one slot per (active app, actor). *)
  ws.app_off <- grow_i ws.app_off nactive;
  ws.r.(0) <- 0;
  (* total members *)
  ws.r.(2) <- 0;
  (* max processor id + 1 *)
  ws.r.(3) <- 0;
  (* max actors of one app *)
  for k = 0 to nactive - 1 do
    let a = apps.(active.(k)) in
    let n = Array.length a.mapping in
    ws.app_off.(k) <- ws.r.(0);
    ws.r.(0) <- ws.r.(0) + n;
    if n > ws.r.(3) then ws.r.(3) <- n;
    for actor = 0 to n - 1 do
      if a.mapping.(actor) + 1 > ws.r.(2) then ws.r.(2) <- a.mapping.(actor) + 1
    done
  done;
  let nmembers = ws.r.(0) in
  ws.slot <- grow_i ws.slot nmembers;
  ws.g_p <- grow_f ws.g_p nmembers;
  ws.g_mu <- grow_f ws.g_mu nmembers;
  ws.g_tau <- grow_f ws.g_tau nmembers;
  ws.g_wait <- grow_f ws.g_wait nmembers;
  ws.group_of_proc <- grow_i ws.group_of_proc ws.r.(2);
  ws.gstart <- grow_i ws.gstart (Int.max 1 nmembers);
  ws.gcount <- grow_i ws.gcount (Int.max 1 nmembers);
  ws.gfill <- grow_i ws.gfill (Int.max 1 nmembers);
  ws.resp <- grow_f ws.resp ws.r.(3);
  for p = 0 to ws.r.(2) - 1 do
    ws.group_of_proc.(p) <- -1
  done;
  (* Group the members by processor, groups numbered in first-seen order. *)
  ws.r.(1) <- 0;
  (* group count *)
  for k = 0 to nactive - 1 do
    let a = apps.(active.(k)) in
    for actor = 0 to Array.length a.mapping - 1 do
      let proc = a.mapping.(actor) in
      if ws.group_of_proc.(proc) < 0 then begin
        ws.group_of_proc.(proc) <- ws.r.(1);
        ws.gcount.(ws.r.(1)) <- 0;
        ws.r.(1) <- ws.r.(1) + 1
      end;
      let g = ws.group_of_proc.(proc) in
      ws.gcount.(g) <- ws.gcount.(g) + 1
    done
  done;
  let ngroups = ws.r.(1) in
  ws.r.(4) <- 0;
  for g = 0 to ngroups - 1 do
    ws.gstart.(g) <- ws.r.(4);
    ws.gfill.(g) <- 0;
    ws.r.(4) <- ws.r.(4) + ws.gcount.(g)
  done;
  (* Fill the member slots in descending (app, actor) order: the reference
     builds each per-processor contender list by prepending during an
     ascending scan, so its head is the largest (app, actor) pair and the
     fold over the others runs descending. *)
  for k = nactive - 1 downto 0 do
    let ai = active.(k) in
    let a = apps.(ai) in
    let loads = caches.(ai).cached_loads in
    for actor = Array.length a.mapping - 1 downto 0 do
      let g = ws.group_of_proc.(a.mapping.(actor)) in
      let s = ws.gstart.(g) + ws.gfill.(g) in
      ws.gfill.(g) <- ws.gfill.(g) + 1;
      ws.slot.(ws.app_off.(k) + actor) <- s;
      let l = loads.(actor) in
      ws.g_p.(s) <- l.Prob.p;
      ws.g_mu.(s) <- l.Prob.mu;
      ws.g_tau.(s) <- l.Prob.tau
    done
  done;
  (* Waiting times, one evaluator call per processor group. *)
  ws.r.(5) <- 0;
  for g = 0 to ngroups - 1 do
    if ws.gcount.(g) > ws.r.(5) then ws.r.(5) <- ws.gcount.(g)
  done;
  Kernel.reserve_group ws.ker ws.r.(5);
  (match est with
  | Worst_case ->
      for g = 0 to ngroups - 1 do
        Kernel.wc_into ~tau:ws.g_tau ~off:ws.gstart.(g) ~n:ws.gcount.(g)
          ~out:ws.g_wait
      done
  | Order m ->
      if m < 2 then invalid_arg "Contention.Approx.waiting_time: order < 2";
      for g = 0 to ngroups - 1 do
        Kernel.order_into ws.ker ~order:m ~p:ws.g_p ~mu:ws.g_mu
          ~off:ws.gstart.(g) ~n:ws.gcount.(g) ~out:ws.g_wait
      done
  | Composability ->
      for g = 0 to ngroups - 1 do
        Kernel.comp_into ws.ker ~p:ws.g_p ~mu:ws.g_mu ~off:ws.gstart.(g)
          ~n:ws.gcount.(g) ~out:ws.g_wait
      done
  | Exact ->
      for g = 0 to ngroups - 1 do
        Kernel.exact_into ws.ker ~p:ws.g_p ~mu:ws.g_mu ~off:ws.gstart.(g)
          ~n:ws.gcount.(g) ~out:ws.g_wait
      done);
  (* Response times and periods per application. *)
  for k = 0 to nactive - 1 do
    let c = caches.(active.(k)) in
    for actor = 0 to Array.length c.cached_exec - 1 do
      ws.resp.(actor) <-
        c.cached_exec.(actor) +. ws.g_wait.(ws.slot.(ws.app_off.(k) + actor))
    done;
    Kernel.period_into ws.ker c.mcr ~exec:ws.resp ~exec_off:0 ~out ~out_idx:k
  done

(* Materialise estimate records for the active apps of the last
   [kernel_pass] (this part allocates; the zero-allocation entry point is
   {!estimate_periods_into}). *)
let collect_results ws (apps : app array) (caches : cache array)
    (active : int array) nactive =
  Array.to_list
    (Array.init nactive (fun k ->
         let ai = active.(k) in
         let a = apps.(ai) in
         let n = Sdf.Graph.num_actors a.graph in
         let waiting_times =
           Array.init n (fun actor ->
               ws.g_wait.(ws.slot.(ws.app_off.(k) + actor)))
         in
         let response_times =
           Array.init n (fun actor ->
               caches.(ai).cached_exec.(actor) +. waiting_times.(actor))
         in
         { for_app = a; waiting_times; response_times; period = ws.periods.(k) }))

let exact_check_tolerance = 1e-9

let check_against_reference est pairs results =
  let refs = estimate_prepared_reference est pairs in
  List.iter2
    (fun (k : estimate) (r : estimate) ->
      let diverged = ref "" in
      let chk what a b =
        if
          !diverged = ""
          && (not (Float.is_nan a && Float.is_nan b))
          && not (Float.abs (a -. b) <= exact_check_tolerance)
        then diverged := Printf.sprintf "%s (%.17g vs %.17g)" what a b
      in
      chk "period" k.period r.period;
      Array.iteri
        (fun i w -> chk (Printf.sprintf "waiting_times.(%d)" i) w r.waiting_times.(i))
        k.waiting_times;
      Array.iteri
        (fun i w ->
          chk (Printf.sprintf "response_times.(%d)" i) w r.response_times.(i))
        k.response_times;
      if !diverged <> "" then
        failwith
          (Printf.sprintf
             "Contention.Analysis: kernel/reference divergence on app %S, \
              estimator %s: %s"
             k.for_app.graph.Sdf.Graph.name (estimator_name est) !diverged))
    results refs

let estimate_prepared ?(engine = Mcm) ?workspace:ws ?(exact_check = false) est
    pairs =
  match pairs with
  | [] -> []
  | pairs -> (
      match engine with
      | Statespace ->
          (* The kernel only implements the MCM period engine. *)
          estimate_prepared_reference ~engine est pairs
      | Mcm ->
          Obs.Span.with_ ~name:"analysis.estimate"
            ~args:(estimate_args est (List.length pairs))
            (fun () ->
              let apps = Array.of_list (List.map fst pairs) in
              let caches = Array.of_list (List.map snd pairs) in
              Array.iteri
                (fun i (a : app) ->
                  if
                    Array.length caches.(i).cached_loads
                    <> Sdf.Graph.num_actors a.graph
                  then
                    invalid_arg
                      "Contention.Analysis.estimate_prepared: cache/app mismatch")
                apps;
              let ws = match ws with Some w -> w | None -> shared_workspace () in
              let nactive = Array.length apps in
              let active = Array.init nactive Fun.id in
              ws.periods <- grow_f ws.periods nactive;
              kernel_pass ws est apps caches active nactive ~out:ws.periods;
              let results = collect_results ws apps caches active nactive in
              if exact_check then check_against_reference est pairs results;
              results))

(* ------------------------------------------------------------------ *)
(* Batched evaluation: many use-cases of one prepared workload. *)

type prepared = { papps : app array; pcaches : cache array }

let prepare_workload ?caches apps =
  let caches =
    match caches with Some cs -> cs | None -> Array.map prepare apps
  in
  if Array.length caches <> Array.length apps then
    invalid_arg "Contention.Analysis.prepare_workload: one cache per app";
  Array.iteri
    (fun i (a : app) ->
      if Array.length caches.(i).cached_loads <> Sdf.Graph.num_actors a.graph then
        invalid_arg "Contention.Analysis.prepare_workload: cache/app mismatch")
    apps;
  { papps = Array.copy apps; pcaches = Array.copy caches }

let estimate_periods_into ws est (p : prepared) ~usecase ~out =
  ws.active <- grow_i ws.active (Array.length p.papps);
  ws.r.(6) <- 0;
  for ai = 0 to Array.length p.papps - 1 do
    if Usecase.mem ai usecase then begin
      ws.active.(ws.r.(6)) <- ai;
      ws.r.(6) <- ws.r.(6) + 1
    end
  done;
  let nactive = ws.r.(6) in
  if nactive > 0 then
    kernel_pass ws est p.papps p.pcaches ws.active nactive ~out;
  nactive

let pairs_of p usecase =
  List.map (fun ai -> (p.papps.(ai), p.pcaches.(ai))) (Usecase.to_list usecase)

let estimate_batch ?(engine = Mcm) ?workspace:ws ?(exact_check = false) est p
    usecases =
  match engine with
  | Statespace ->
      List.map
        (fun usecase ->
          estimate_prepared_reference ~engine est (pairs_of p usecase))
        usecases
  | Mcm ->
      let ws = match ws with Some w -> w | None -> shared_workspace () in
      List.map
        (fun usecase ->
          Obs.Span.with_ ~name:"analysis.estimate"
            ~args:(estimate_args est (Usecase.cardinal usecase))
            (fun () ->
              ws.periods <- grow_f ws.periods (Array.length p.papps);
              let nactive =
                estimate_periods_into ws est p ~usecase ~out:ws.periods
              in
              let results =
                collect_results ws p.papps p.pcaches ws.active nactive
              in
              if exact_check then
                check_against_reference est (pairs_of p usecase) results;
              results))
        usecases

let estimate_with_loads ?(engine = Mcm) est pairs =
  match pairs with
  | [] -> []
  | pairs ->
      let apps = Array.of_list (List.map fst pairs) in
      let loads =
        Array.of_list
          (List.map
             (fun ((a : app), loads) ->
               if Array.length loads <> Sdf.Graph.num_actors a.graph then
                 invalid_arg "Contention.Analysis.estimate_with_loads: length mismatch";
               loads)
             pairs)
      in
      Array.to_list (one_pass engine est apps loads (expansions_for engine apps))

let estimate_calibrated ?engine est measured =
  estimate_with_loads ?engine est
    (List.map
       (fun (a, period) ->
         if period <= 0. then
           invalid_arg "Contention.Analysis.estimate_calibrated: period <= 0";
         (a, loads_with_period a period))
       measured)
