(* Differential test of the flat-array simulator against the engine it
   replaced ({!Desim_reference}): every result field, the run statistics and
   the full event stream must agree bit for bit, under all three arbitration
   policies, with and without a [firing_time] hook. *)

open Desim

let bits = Int64.bits_of_float

let same_floats a b =
  Array.length a = Array.length b && Array.for_all2 (fun x y -> bits x = bits y) a b

let check_results (r : Engine.result array) (r' : Engine.result array) =
  let fields (x : Engine.result) (y : Engine.result) =
    [
      ("app_name", x.app_name = y.app_name);
      ("iterations", x.iterations = y.iterations);
      ("avg_period", bits x.avg_period = bits y.avg_period);
      ("max_period", bits x.max_period = bits y.max_period);
      ("min_period", bits x.min_period = bits y.min_period);
      ("busy_time", same_floats x.busy_time y.busy_time);
    ]
  in
  if Array.length r <> Array.length r' then Error "result count"
  else
    let mismatches =
      List.concat_map
        (fun i ->
          List.filter_map
            (fun (name, ok) -> if ok then None else Some (Printf.sprintf "app %d %s" i name))
            (fields r.(i) r'.(i)))
        (List.init (Array.length r) Fun.id)
    in
    match mismatches with [] -> Ok () | e :: _ -> Error e

let check_stats (s : Engine.stats) (s' : Engine.stats) =
  if bits s.final_time <> bits s'.final_time then Error "final_time"
  else if s.total_firings <> s'.total_firings then Error "total_firings"
  else if not (same_floats s.proc_busy s'.proc_busy) then Error "proc_busy"
  else Ok ()

let event_key = function
  | Engine.Start { time; app; actor; proc } -> (0, bits time, app, actor, proc)
  | Engine.Finish { time; app; actor; proc } -> (1, bits time, app, actor, proc)

let ( >>= ) = Result.bind

(* Run both engines twice, without and with [on_event]; [firing_time ()]
   hands each run a fresh copy of the hook, so stochastic hooks replay the
   same draws. *)
let compare_engines ?firing_time ~arbitration ~horizon ~warmup_iterations ~procs apps =
  let hook () = Option.map (fun make -> make ()) firing_time in
  let run_new on_event =
    Engine.run ?on_event ?firing_time:(hook ()) ~arbitration ~horizon ~warmup_iterations
      ~procs apps
  in
  let run_ref on_event =
    Desim_reference.run ?on_event ?firing_time:(hook ()) ~arbitration ~horizon
      ~warmup_iterations ~procs apps
  in
  let logged run =
    let log = ref [] in
    let r, s = run (Some (fun e -> log := event_key e :: !log)) in
    (r, s, List.rev !log)
  in
  let r, s = run_new None and r', s' = run_ref None in
  let re, se, events = logged run_new and re', se', events' = logged run_ref in
  check_results r r' >>= fun () ->
  check_stats s s' >>= fun () ->
  check_results re re' >>= fun () ->
  check_stats se se' >>= fun () ->
  (* Emitting events must not change the results. *)
  check_results r re >>= fun () ->
  check_stats s se >>= fun () ->
  if List.length events <> List.length events' then
    Error (Printf.sprintf "event count %d <> %d" (List.length events) (List.length events'))
  else if events <> events' then Error "event stream"
  else Ok ()

(* The per-processor order a reference FCFS run follows in the middle of the
   horizon: a static order that serves real traffic (and may stall). *)
let observed_order ~horizon ~procs apps =
  let trace = Trace.create () in
  ignore (Desim_reference.run ~on_event:(Trace.on_event trace) ~horizon ~procs apps);
  Trace.static_order trace ~procs ~window:(horizon /. 4., horizon /. 2.)

(* Execution times redrawn per firing from a small lattice, so completions
   still tie often enough to exercise the tie-break order. *)
let stochastic ~seed apps () =
  let rng = Sdfgen.Rng.create seed in
  fun ~app ~actor ->
    let tau = (Sdf.Graph.actor apps.(app).Engine.graph actor).exec_time in
    tau *. float_of_int (1 + Sdfgen.Rng.int rng 4) /. 2.

let policies ~horizon ~procs apps =
  [
    ("fcfs", Engine.Fcfs);
    ("fixed priority", Engine.Fixed_priority);
    ("static order", Engine.Static_order (observed_order ~horizon ~procs apps));
  ]

let check_all ~what ~seed ~horizon ~warmup_iterations ~procs apps =
  List.iter
    (fun (policy, arbitration) ->
      List.iter
        (fun (hook, firing_time) ->
          match
            compare_engines ?firing_time ~arbitration ~horizon ~warmup_iterations ~procs apps
          with
          | Ok () -> ()
          | Error e -> Alcotest.failf "%s, %s, %s: engines differ in %s" what policy hook e)
        [ ("static times", None); ("stochastic times", Some (stochastic ~seed apps)) ])
    (policies ~horizon ~procs apps)

(* Horizon for roughly [n] iterations of the slowest app even if every
   firing of every app were serialised. *)
let horizon_for n (apps : Engine.app array) =
  let work (a : Engine.app) =
    let q = Sdf.Repetition.compute_exn a.graph in
    Array.fold_left ( +. ) 0.
      (Array.mapi (fun i (x : Sdf.Graph.actor) -> float_of_int q.(i) *. x.exec_time) a.graph.actors)
  in
  n *. Array.fold_left (fun acc a -> acc +. work a) 0. apps

type spec = { seed : int; napps : int; procs : int; warmup : int }

let spec_gen =
  let open QCheck2.Gen in
  let* seed = int_range 0 1_000_000 in
  let* napps = int_range 1 4 in
  let* procs = int_range 1 4 in
  let* warmup = int_range 0 3 in
  return { seed; napps; procs; warmup }

let print_spec s =
  Printf.sprintf "seed=%d napps=%d procs=%d warmup=%d" s.seed s.napps s.procs s.warmup

let prop_sdfgen_workloads =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60 ~name:"sdfgen workloads bit-identical" ~print:print_spec spec_gen
       (fun s ->
         let params =
           {
             Sdfgen.Generator.default_params with
             actors_min = 2;
             actors_max = 6;
             exec_min = 1;
             exec_max = 12;
           }
         in
         let rng = Sdfgen.Rng.create s.seed in
         let apps =
           Array.map
             (fun g ->
               {
                 Engine.graph = g;
                 mapping = Array.init (Sdf.Graph.num_actors g) (fun _ -> Sdfgen.Rng.int rng s.procs);
               })
             (Sdfgen.Generator.generate_many ~params ~seed:s.seed s.napps)
         in
         check_all ~what:(print_spec s) ~seed:s.seed ~horizon:3000. ~warmup_iterations:s.warmup
           ~procs:s.procs apps;
         true))

let test_corpus () =
  let dir = if Sys.file_exists "corpus" then "corpus" else "test/corpus" in
  let entries, errors = Check.Corpus.load_dir dir in
  (match errors with
  | [] -> ()
  | (path, e) :: _ -> Alcotest.failf "unreadable corpus file %s: %s" path e);
  Alcotest.(check bool) "corpus is not empty" true (entries <> []);
  List.iter
    (fun (path, (entry : Check.Corpus.entry)) ->
      match Check.Case.materialize entry.spec with
      | Error e -> Alcotest.failf "corpus case %s: %s" path e
      | Ok t ->
          let apps = Check.Case.sim_apps t in
          check_all ~what:path ~seed:entry.spec.seed ~horizon:(horizon_for 40. apps)
            ~warmup_iterations:5 ~procs:entry.spec.procs apps)
    entries

let test_golden_workload () =
  let w = Test_golden.golden_workload () in
  List.iter
    (fun uc ->
      let apps = Exp.Workload.sim_apps w uc in
      check_all
        ~what:(Printf.sprintf "golden use-case %d" uc)
        ~seed:uc ~horizon:20_000. ~warmup_iterations:20 ~procs:w.procs apps)
    (Contention.Usecase.all ~napps:(Exp.Workload.num_apps w))

let suite =
  [
    prop_sdfgen_workloads;
    Alcotest.test_case "corpus cases bit-identical" `Quick test_corpus;
    Alcotest.test_case "golden workload bit-identical" `Quick test_golden_workload;
  ]
