type estimator = Worst_case | Order of int | Composability | Exact

let estimator_name = function
  | Worst_case -> "worst-case"
  | Order 2 -> "second-order"
  | Order 4 -> "fourth-order"
  | Order m -> Printf.sprintf "order-%d" m
  | Composability -> "composability"
  | Exact -> "exact"

let all_paper_estimators = [ Worst_case; Order 4; Order 2; Composability ]

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

type cache = {
  cached_loads : Prob.t array;
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
        cached_exec = Sdf.Graph.exec_times a.graph;
        mcr = flatten_expansion expansion;
      })

let kernel_graph g = flatten_expansion (Sdf.Hsdf.expand g)

let estimate_args est n () =
  [ ("estimator", estimator_name est); ("apps", string_of_int n) ]

(* ------------------------------------------------------------------ *)
(* The Figure-4 pass over preallocated flat arrays.

   The use-case's actors are laid out as contiguous per-processor member
   slots in a reusable {!workspace} and the {!Kernel} estimators evaluate
   over them.  The list-based reference pass in lib/check ([Check.Reference])
   folds the same floating-point operation sequences; the test suite and the
   fuzzing oracle hold the two bit for bit. *)

let waits_into ker est ~p ~mu ~tau ~off ~n ~out =
  match est with
  | Worst_case -> Kernel.wc_into ~tau ~off ~n ~out
  | Order m ->
      if m < 2 then invalid_arg "Contention.Analysis: order < 2";
      Kernel.order_into ker ~order:m ~p ~mu ~off ~n ~out
  | Composability -> Kernel.comp_into ker ~p ~mu ~off ~n ~out
  | Exact -> Kernel.exact_into ker ~p ~mu ~off ~n ~out

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
   use-case's applications into [apps]/[caches]/[loads] in ascending order
   (the order the reference receives its pairs in); the period of [active.(k)] is
   written to [out.(k)], the per-actor waits stay in [ws.g_wait] addressed
   through [ws.slot]/[ws.app_off].  Allocation-free once [ws] has grown to
   the workload's high-water mark. *)
let kernel_pass ws est (apps : app array) (caches : cache array)
    (loads : Prob.t array array) (active : int array) nactive
    ~(out : float array) =
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
    let loads = loads.(ai) in
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
  for g = 0 to ngroups - 1 do
    waits_into ws.ker est ~p:ws.g_p ~mu:ws.g_mu ~tau:ws.g_tau ~off:ws.gstart.(g)
      ~n:ws.gcount.(g) ~out:ws.g_wait
  done;
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
  Array.init nactive (fun k ->
      let ai = active.(k) in
      let a = apps.(ai) in
      let n = Sdf.Graph.num_actors a.graph in
      let waiting_times =
        Array.init n (fun actor -> ws.g_wait.(ws.slot.(ws.app_off.(k) + actor)))
      in
      let response_times =
        Array.init n (fun actor ->
            caches.(ai).cached_exec.(actor) +. waiting_times.(actor))
      in
      { for_app = a; waiting_times; response_times; period = ws.periods.(k) })

(* One pass over every app of [apps] (all active) with the given loads. *)
let run_pass ws est apps caches loads =
  let nactive = Array.length apps in
  let active = Array.init nactive Fun.id in
  ws.periods <- grow_f ws.periods nactive;
  kernel_pass ws est apps caches loads active nactive ~out:ws.periods;
  collect_results ws apps caches active nactive

let check_cache fn (a : app) c =
  if Array.length c.cached_loads <> Sdf.Graph.num_actors a.graph then
    invalid_arg (Printf.sprintf "Contention.Analysis.%s: cache/app mismatch" fn)

let estimate_prepared ?workspace:ws est pairs =
  match pairs with
  | [] -> []
  | pairs ->
      Obs.Span.with_ ~name:"analysis.estimate"
        ~args:(estimate_args est (List.length pairs))
        (fun () ->
          let apps = Array.of_list (List.map fst pairs) in
          let caches = Array.of_list (List.map snd pairs) in
          Array.iteri (fun i a -> check_cache "estimate_prepared" a caches.(i)) apps;
          let ws = match ws with Some w -> w | None -> shared_workspace () in
          let loads = Array.map (fun c -> c.cached_loads) caches in
          Array.to_list (run_pass ws est apps caches loads))

let estimate ?(iterations = 1) est apps =
  if iterations < 1 then invalid_arg "Contention.Analysis.estimate: iterations < 1";
  match apps with
  | [] -> []
  | apps ->
      Obs.Span.with_ ~name:"analysis.estimate"
        ~args:(estimate_args est (List.length apps))
        (fun () ->
          let apps = Array.of_list apps in
          let caches = Array.map prepare apps in
          let ws = shared_workspace () in
          let rec refine pass loads_now =
            let results = run_pass ws est apps caches loads_now in
            if pass >= iterations then results
            else
              (* Fixed-point refinement: blocking probabilities from the newly
                 estimated periods (execution times stay the original tau). *)
              refine (pass + 1)
                (Array.mapi (fun ai a -> loads_with_period a results.(ai).period) apps)
          in
          Array.to_list (refine 1 (Array.map (fun c -> c.cached_loads) caches)))

(* ------------------------------------------------------------------ *)
(* Batched evaluation: many use-cases of one prepared workload. *)

type prepared = {
  papps : app array;
  pcaches : cache array;
  ploads : Prob.t array array;  (* the caches' loads, for [kernel_pass] *)
}

let prepare_workload ?caches apps =
  let caches =
    match caches with Some cs -> cs | None -> Array.map prepare apps
  in
  if Array.length caches <> Array.length apps then
    invalid_arg "Contention.Analysis.prepare_workload: one cache per app";
  Array.iteri (fun i a -> check_cache "prepare_workload" a caches.(i)) apps;
  {
    papps = Array.copy apps;
    pcaches = Array.copy caches;
    ploads = Array.map (fun c -> c.cached_loads) caches;
  }

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
    kernel_pass ws est p.papps p.pcaches p.ploads ws.active nactive ~out;
  nactive

let estimate_batch ?workspace:ws est p usecases =
  let ws = match ws with Some w -> w | None -> shared_workspace () in
  List.map
    (fun usecase ->
      Obs.Span.with_ ~name:"analysis.estimate"
        ~args:(estimate_args est (Usecase.cardinal usecase))
        (fun () ->
          ws.periods <- grow_f ws.periods (Array.length p.papps);
          let nactive = estimate_periods_into ws est p ~usecase ~out:ws.periods in
          Array.to_list (collect_results ws p.papps p.pcaches ws.active nactive)))
    usecases

let estimate_with_loads est pairs =
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
      Obs.Span.with_ ~name:"analysis.estimate"
        ~args:(estimate_args est (Array.length apps))
        (fun () ->
          Array.to_list
            (run_pass (shared_workspace ()) est apps (Array.map prepare apps) loads))

let estimate_calibrated est measured =
  estimate_with_loads est
    (List.map
       (fun (a, period) ->
         if period <= 0. then
           invalid_arg "Contention.Analysis.estimate_calibrated: period <= 0";
         (a, loads_with_period a period))
       measured)
