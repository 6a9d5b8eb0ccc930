type observation = {
  usecase : Contention.Usecase.t;
  app_index : int;
  simulated_period : float;
  simulated_worst : float;
  estimated_periods : (Contention.Analysis.estimator * float) list;
}

type timing = {
  simulation_s : float;
  analysis_s : (Contention.Analysis.estimator * float) list;
}

type t = {
  workload : Workload.t;
  estimators : Contention.Analysis.estimator list;
  observations : observation list;
  timing : timing;
}

(* Per-use-case outcome: the observations plus this task's own wall-clock
   shares.  Timings are accumulated per task and merged after the pool joins,
   so the sums stay meaningful (total CPU seconds across domains) without any
   shared mutable accumulator. *)
type task_result = {
  task_observations : observation list;
  task_sim_s : float;
  task_analysis_s : float array;  (** Aligned with the estimator list. *)
}

(* [sweep.simulate] span args saying why a simulation was fast. *)
let cycle_args = function
  | None -> []
  | Some (c : Desim.Engine.cycle) ->
      [
        ("cycle_start", Printf.sprintf "%.0f" c.start);
        ("cycle_length", Printf.sprintf "%.0f" c.length);
        ("cycles_skipped", string_of_int c.skipped);
      ]

let run ?(horizon = 500_000.) ?estimators ?usecases ?progress ?jobs
    (w : Workload.t) =
  let estimators =
    Option.value ~default:Contention.Analysis.all_paper_estimators estimators
  in
  let estimators_arr = Array.of_list estimators in
  let usecases =
    Option.value ~default:(Contention.Usecase.all ~napps:(Workload.num_apps w)) usecases
  in
  let ucs = Array.of_list usecases in
  let total = Array.length ucs in
  (* Use-case-invariant per-application work (load descriptors, HSDF
     expansion), hoisted out of the sweep: computed once per workload and
     shared read-only by every task. *)
  let caches = Array.map Contention.Analysis.prepare w.apps in
  let progress_mutex = Mutex.create () in
  let completed = ref 0 in
  let tick () =
    match progress with
    | None -> ()
    | Some f ->
        (* The counter and the callback share one mutex, so [f] observes
           strictly increasing counts even when tasks finish concurrently. *)
        Mutex.lock progress_mutex;
        Fun.protect
          ~finally:(fun () -> Mutex.unlock progress_mutex)
          (fun () ->
            incr completed;
            f !completed total)
  in
  let napps = Workload.num_apps w in
  let jobs_label =
    match jobs with Some j -> string_of_int j | None -> "default"
  in
  let observe_usecase idx usecase indices =
    let t0 = Obs.Clock.now_ns () in
    let cycle = ref None in
    let sim_results =
      Obs.Span.with_ ~name:"sweep.simulate"
        ~args:(fun () -> ("task", string_of_int idx) :: cycle_args !cycle)
        (fun () ->
          let results, stats =
            Desim.Engine.run ~horizon
              ?firing_time:(Workload.sim_firing_time w usecase)
              ~procs:w.procs (Workload.sim_apps w usecase)
          in
          cycle := stats.cycle;
          results)
    in
    let task_sim_s = Obs.Clock.elapsed_s ~since:t0 in
    let pairs = List.map (fun i -> (w.apps.(i), caches.(i))) indices in
    let task_analysis_s = Array.make (Array.length estimators_arr) 0. in
    let per_estimator =
      Array.to_list
        (Array.mapi
           (fun k est ->
             let t0 = Obs.Clock.now_ns () in
             let results =
               Obs.Span.with_ ~name:"sweep.estimate"
                 ~args:(fun () ->
                   [ ("estimator", Contention.Analysis.estimator_name est) ])
                 (fun () ->
                   (* The kernel engine over this domain's workspace: every
                      use-case this task analyses reuses the same buffers. *)
                   Contention.Analysis.estimate_prepared
                     ~workspace:(Contention.Analysis.shared_workspace ())
                     est pairs)
             in
             task_analysis_s.(k) <- Obs.Clock.elapsed_s ~since:t0;
             ( est,
               List.map (fun (r : Contention.Analysis.estimate) -> r.period) results ))
           estimators_arr)
    in
    let task_observations =
      List.mapi
        (fun pos app_index ->
          {
            usecase;
            app_index;
            simulated_period = sim_results.(pos).Desim.Engine.avg_period;
            simulated_worst = sim_results.(pos).Desim.Engine.max_period;
            estimated_periods =
              List.map
                (fun (est, periods) -> (est, List.nth periods pos))
                per_estimator;
          })
        indices
    in
    tick ();
    { task_observations; task_sim_s; task_analysis_s }
  in
  let observe idx =
    let usecase = ucs.(idx) in
    let indices = Contention.Usecase.to_list usecase in
    Obs.Span.with_ ~name:"sweep.usecase"
      ~args:(fun () ->
        [
          ("task", string_of_int idx);
          ("usecase", Format.asprintf "%a" (Contention.Usecase.pp ~napps) usecase);
          ("apps", string_of_int (Contention.Usecase.cardinal usecase));
          ("jobs", jobs_label);
        ])
      (fun () -> observe_usecase idx usecase indices)
  in
  let tasks = Pool.map_range ?jobs total observe in
  let observations =
    List.concat_map (fun t -> t.task_observations) (Array.to_list tasks)
  in
  {
    workload = w;
    estimators;
    observations;
    timing =
      {
        simulation_s = Array.fold_left (fun acc t -> acc +. t.task_sim_s) 0. tasks;
        analysis_s =
          List.mapi
            (fun k est ->
              (est, Array.fold_left (fun acc t -> acc +. t.task_analysis_s.(k)) 0. tasks))
            estimators;
      };
  }

let valid_observations t =
  List.filter (fun o -> not (Float.is_nan o.simulated_period)) t.observations

let estimate_of o est =
  match List.assoc_opt est o.estimated_periods with
  | Some p -> p
  | None -> invalid_arg "Exp.Sweep: estimator was not part of the sweep"

let inaccuracy_over obs est ~on =
  match obs with
  | [] -> nan
  | obs ->
      Repro_stats.Stats.mean
        (List.map
           (fun o ->
             Repro_stats.Stats.abs_pct_error
               ~reference:(on o.simulated_period)
               (on (estimate_of o est)))
           obs)

let inaccuracy_period t est = inaccuracy_over (valid_observations t) est ~on:Fun.id

let inaccuracy_throughput t est =
  inaccuracy_over (valid_observations t) est ~on:(fun p -> 1. /. p)

let inaccuracy_by_size t est =
  let by_size = Hashtbl.create 16 in
  List.iter
    (fun o ->
      let k = Contention.Usecase.cardinal o.usecase in
      Hashtbl.replace by_size k (o :: Option.value ~default:[] (Hashtbl.find_opt by_size k)))
    (valid_observations t);
  let sizes = List.sort_uniq Int.compare (Hashtbl.fold (fun k _ acc -> k :: acc) by_size []) in
  Array.of_list
    (List.map
       (fun k -> (k, inaccuracy_over (Hashtbl.find by_size k) est ~on:Fun.id))
       sizes)
