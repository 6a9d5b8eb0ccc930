(* Differential test of the flat-array simulator against the engine it
   replaced ({!Desim_reference}): every result field, the run statistics and
   the full event stream must agree bit for bit, under all three arbitration
   policies, with and without a [firing_time] hook.  The reference steps
   every firing, so the long-horizon cases below also prove cycle skipping
   exact; they assert how often it happened, so they cannot pass by never
   skipping. *)

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

(* [cycle] is not compared: the reference never skips. *)
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

let sdfgen_params =
  {
    Sdfgen.Generator.default_params with
    actors_min = 2;
    actors_max = 6;
    exec_min = 1;
    exec_max = 12;
  }

let sdfgen_apps s =
  let rng = Sdfgen.Rng.create s.seed in
  Array.map
    (fun g ->
      {
        Engine.graph = g;
        mapping = Array.init (Sdf.Graph.num_actors g) (fun _ -> Sdfgen.Rng.int rng s.procs);
      })
    (Sdfgen.Generator.generate_many ~params:sdfgen_params ~seed:s.seed s.napps)

let prop_sdfgen_workloads =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60 ~long_factor:10 ~name:"sdfgen workloads bit-identical"
       ~print:print_spec spec_gen
       (fun s ->
         check_all ~what:(print_spec s) ~seed:s.seed ~horizon:3000. ~warmup_iterations:s.warmup
           ~procs:s.procs (sdfgen_apps s);
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

(* ------------------------------------------------------------------ *)
(* Cycle skipping at long horizons *)

(* Both engines without hooks; the new engine's cycle, if the results
   agree. *)
let compare_plain ~what ~arbitration ~horizon ~warmup_iterations ~procs apps =
  let r, s = Engine.run ~arbitration ~horizon ~warmup_iterations ~procs apps in
  let r', s' = Desim_reference.run ~arbitration ~horizon ~warmup_iterations ~procs apps in
  match check_results r r' >>= fun () -> check_stats s s' with
  | Ok () -> s.cycle
  | Error e -> Alcotest.failf "%s at horizon %g: engines differ in %s" what horizon e

(* The three policies at a long horizon.  A static order observed on a
   short FCFS run mostly stalls; one observed over a whole cycle of the
   FCFS run repeats that cycle's service order, which often runs for ever,
   so it is used when the FCFS run skips. *)
let long_policies ~horizon ~warmup_iterations ~procs apps =
  let order =
    match (snd (Engine.run ~horizon ~warmup_iterations ~procs apps)).cycle with
    | None -> observed_order ~horizon:3000. ~procs apps
    | Some c ->
        let trace = Trace.create () in
        ignore
          (Engine.run ~on_event:(Trace.on_event trace) ~horizon:(c.start +. c.length)
             ~warmup_iterations ~procs apps);
        Trace.static_order trace ~procs ~window:(c.start, c.start +. c.length)
  in
  [
    ("fcfs", Engine.Fcfs);
    ("fixed priority", Engine.Fixed_priority);
    ("static order", Engine.Static_order order);
  ]

let test_long_horizon_population () =
  let rng = Sdfgen.Rng.create 20_260_417 in
  let skipped = Array.make 3 0 in
  for i = 0 to 39 do
    let s =
      {
        seed = Sdfgen.Rng.int rng 1_000_000;
        napps = 1 + Sdfgen.Rng.int rng 4;
        procs = 1 + Sdfgen.Rng.int rng 4;
        warmup = Sdfgen.Rng.int rng 4;
      }
    in
    let horizon = 20_000. *. float_of_int (1 + (i mod 5)) in
    let apps = sdfgen_apps s in
    List.iteri
      (fun k (policy, arbitration) ->
        let what = Printf.sprintf "%s, %s" (print_spec s) policy in
        if
          Option.is_some
            (compare_plain ~what ~arbitration ~horizon ~warmup_iterations:s.warmup ~procs:s.procs
               apps)
        then skipped.(k) <- skipped.(k) + 1)
      (long_policies ~horizon ~warmup_iterations:s.warmup ~procs:s.procs apps)
  done;
  (* Of the 40 cases, FCFS skips in all 40 today, fixed priority in the 26
     where no app starves, and static order in 7: most orders still stall
     at boot, since a cycle's order starts mid-schedule. *)
  if Array.exists2 ( < ) skipped [| 38; 23; 5 |] then
    Alcotest.failf
      "too few of 40 runs skipped cycles: fcfs %d, fixed priority %d, static order %d (want \
       38, 23, 5)"
      skipped.(0) skipped.(1) skipped.(2)

let test_pinned_cases () =
  List.iter
    (fun (s, arbitration) ->
      let apps = sdfgen_apps s in
      List.iter
        (fun horizon ->
          match
            compare_plain ~what:(print_spec s) ~arbitration ~horizon ~warmup_iterations:s.warmup
              ~procs:s.procs apps
          with
          | Some _ -> ()
          | None -> Alcotest.failf "%s at horizon %g: no cycle skipped" (print_spec s) horizon)
        [ 20_000.; 50_000.; 100_000. ])
    [
      (* Without each app's time since its last iteration in the state, a
         gap from the transient stands in for the periodic one here, and
         max_period/min_period go wrong. *)
      ({ seed = 342018; napps = 3; procs = 3; warmup = 0 }, Engine.Fixed_priority);
      (* Without the running firings' remaining times, two different states
         match here. *)
      ({ seed = 607800; napps = 2; procs = 2; warmup = 0 }, Engine.Fcfs);
    ]

let test_horizon_on_extrapolated_completion () =
  (* The cycle's start is an iteration of app 0, and so is every whole
     number of cycles after it: a horizon there makes the jump land exactly
     on the last instant the run processes. *)
  let w = Test_golden.golden_workload () in
  let apps = Exp.Workload.sim_apps w 0b1111 in
  let run horizon =
    compare_plain ~what:"golden use-case 15" ~arbitration:Engine.Fcfs ~horizon
      ~warmup_iterations:20 ~procs:w.procs apps
  in
  match run 100_000. with
  | None -> Alcotest.fail "golden use-case 15 skips no cycle"
  | Some c ->
      let k = int_of_float ((100_000. -. c.start) /. c.length) - 1 in
      let landing = c.start +. (float_of_int k *. c.length) in
      (match run landing with
      | Some c' ->
          Fixtures.check_float ~eps:0. "same start" c.start c'.start;
          Fixtures.check_float ~eps:0. "same length" c.length c'.length;
          Alcotest.(check int) "skips up to the horizon" (k - 1) c'.skipped
      | None -> Alcotest.failf "no cycle skipped at horizon %g" landing);
      List.iter (fun h -> ignore (run h)) [ landing -. 1.; landing +. 1.; landing +. 0.5 ]

let test_fractional_times_step () =
  (* Non-integer execution times: no skipping, same results. *)
  let s = { seed = 342018; napps = 3; procs = 3; warmup = 0 } in
  let apps =
    Array.map
      (fun (a : Engine.app) ->
        {
          a with
          graph =
            Sdf.Graph.with_exec_times a.graph
              (Array.map (fun t -> t +. 0.25) (Sdf.Graph.exec_times a.graph));
        })
      (sdfgen_apps s)
  in
  List.iter
    (fun (policy, arbitration) ->
      match
        compare_plain ~what:(print_spec s ^ ", " ^ policy) ~arbitration ~horizon:50_000.
          ~warmup_iterations:s.warmup ~procs:s.procs apps
      with
      | None -> ()
      | Some _ -> Alcotest.failf "%s: skipped cycles with fractional times" policy)
    (long_policies ~horizon:50_000. ~warmup_iterations:s.warmup ~procs:s.procs apps)

let test_event_stream_at_skipping_horizon () =
  (* An [on_event] run steps every firing; it must match the reference's
     stream, and its results must match the plain run, which skips under
     FCFS and fixed priority here (this static order stalls). *)
  let s = { seed = 342018; napps = 3; procs = 3; warmup = 0 } in
  let apps = sdfgen_apps s in
  let horizon = 20_000. in
  List.iter
    (fun (policy, arbitration) ->
      let what = print_spec s ^ ", " ^ policy in
      let skips =
        Option.is_some
          (compare_plain ~what ~arbitration ~horizon ~warmup_iterations:s.warmup ~procs:s.procs
             apps)
      in
      if policy <> "static order" && not skips then
        Alcotest.failf "%s: plain run skips no cycle" what;
      match
        compare_engines ~arbitration ~horizon ~warmup_iterations:s.warmup ~procs:s.procs apps
      with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: engines differ in %s" what e)
    (long_policies ~horizon ~warmup_iterations:s.warmup ~procs:s.procs apps)

let test_paper_usecases () =
  (* The paper's workload at its 500k horizon: the lowest and highest
     use-case of every size. *)
  let w = Exp.Workload.make () in
  let napps = Exp.Workload.num_apps w in
  let all = Contention.Usecase.all ~napps in
  let skipped = ref 0 and runs = ref 0 in
  for size = 1 to napps do
    let of_size = List.filter (fun uc -> Contention.Usecase.cardinal uc = size) all in
    List.iter
      (fun uc ->
        incr runs;
        if
          Option.is_some
            (compare_plain
               ~what:(Printf.sprintf "paper use-case %d" uc)
               ~arbitration:Engine.Fcfs ~horizon:500_000. ~warmup_iterations:20 ~procs:w.procs
               (Exp.Workload.sim_apps w uc))
        then incr skipped)
      (List.sort_uniq compare [ List.hd of_size; List.hd (List.rev of_size) ])
  done;
  (* Use-cases of up to six apps recur within 500k; 14 of these 19 skip today. *)
  if !skipped < 12 then Alcotest.failf "only %d of %d paper use-cases skipped cycles" !skipped !runs

(* ------------------------------------------------------------------ *)
(* Ready-set dispatch and short-of-tokens counts *)

(* Over 130 processors the ready set spans three words; app 0's actor 0 is
   moved to the last processor so the third word is always in use. *)
let wide_spec_gen =
  let open QCheck2.Gen in
  let* seed = int_range 0 1_000_000 in
  let* napps = int_range 30 40 in
  let* warmup = int_range 0 3 in
  return { seed; napps; procs = 130; warmup }

let wide_apps s =
  let apps = sdfgen_apps s in
  apps.(0).mapping.(0) <- s.procs - 1;
  apps

let prop_wide_workloads =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:3 ~long_factor:10 ~name:"130 processors bit-identical"
       ~print:print_spec wide_spec_gen (fun s ->
         check_all ~what:(print_spec s) ~seed:s.seed ~horizon:3000. ~warmup_iterations:s.warmup
           ~procs:s.procs (wide_apps s);
         true))

let test_static_order_waits_for_entry () =
  (* Processor 0 serves y, then x.  x is queued at boot but y is not, so
     processor 0 idles with queued work until y's producer on processor 1
     finishes at 5 and y is enqueued: that enqueue must dispatch processor
     0 although it already had work queued.  When y finishes at 6,
     processor 0 goes idle with x queued, and x starts at 6. *)
  let x =
    Sdf.Graph.create ~name:"x" ~actors:[| ("x", 2.) |] ~channels:[| (0, 0, 1, 1, 1) |]
  in
  let y =
    Sdf.Graph.create ~name:"y"
      ~actors:[| ("ysrc", 5.); ("y", 1.) |]
      ~channels:[| (0, 1, 1, 1, 0); (1, 0, 1, 1, 1) |]
  in
  let apps =
    [| { Engine.graph = x; mapping = [| 0 |] }; { Engine.graph = y; mapping = [| 1; 0 |] } |]
  in
  let arbitration = Engine.Static_order [| [| (1, 1); (0, 0) |]; [| (1, 0) |] |] in
  (match compare_engines ~arbitration ~horizon:200. ~warmup_iterations:2 ~procs:2 apps with
  | Ok () -> ()
  | Error e -> Alcotest.failf "engines differ in %s" e);
  let starts = ref [] in
  let results, _ =
    Engine.run ~arbitration ~horizon:200. ~warmup_iterations:2 ~procs:2
      ~on_event:(function
        | Engine.Start { time; app = 0; _ } -> starts := time :: !starts
        | Engine.Start _ | Engine.Finish _ -> ())
      apps
  in
  (match List.rev !starts with
  | first :: _ -> Fixtures.check_float ~eps:0. "x first starts at 6" 6. first
  | [] -> Alcotest.fail "x never starts");
  Fixtures.check_float ~eps:0. "x period" 6. results.(0).Engine.avg_period;
  Fixtures.check_float ~eps:0. "y period" 6. results.(1).Engine.avg_period

let test_multirate_token_counts () =
  (* a (rate 2) feeds b (rate 3), and b (rate 3) feeds a back (rate 2):
     channels reach exactly their consumption rate (a's output at 3, b's at
     2), which is where an off-by-one in the short-of-tokens counts shows.
     Self-timed, an iteration (three firings of a, two of b) takes 5. *)
  let g =
    Sdf.Graph.create ~name:"mr"
      ~actors:[| ("a", 1.); ("b", 2.) |]
      ~channels:[| (0, 1, 2, 3, 0); (1, 0, 3, 2, 6) |]
  in
  let apps = [| { Engine.graph = g; mapping = [| 0; 1 |] } |] in
  check_all ~what:"multi-rate pair" ~seed:7 ~horizon:400. ~warmup_iterations:2 ~procs:2 apps;
  let results, _ = Engine.run ~horizon:400. ~warmup_iterations:2 ~procs:2 apps in
  Fixtures.check_float ~eps:0. "period" 5. results.(0).Engine.avg_period;
  (* The same pair beside a contending app on processor 1. *)
  let other = { Engine.graph = Fixtures.pipeline ~tau0:2. ~tau1:3. (); mapping = [| 1; 1 |] } in
  check_all ~what:"multi-rate pair with contention" ~seed:8 ~horizon:400. ~warmup_iterations:2
    ~procs:2 [| apps.(0); other |]

let suite =
  [
    prop_sdfgen_workloads;
    prop_wide_workloads;
    Alcotest.test_case "static order waits for its next entry" `Quick
      test_static_order_waits_for_entry;
    Alcotest.test_case "multi-rate token counts" `Quick test_multirate_token_counts;
    Alcotest.test_case "corpus cases bit-identical" `Quick test_corpus;
    Alcotest.test_case "golden workload bit-identical" `Quick test_golden_workload;
    Alcotest.test_case "long horizons skip cycles exactly" `Quick test_long_horizon_population;
    Alcotest.test_case "pinned cases" `Quick test_pinned_cases;
    Alcotest.test_case "horizon on an extrapolated completion" `Quick
      test_horizon_on_extrapolated_completion;
    Alcotest.test_case "fractional times step every firing" `Quick test_fractional_times_step;
    Alcotest.test_case "event stream at a skipping horizon" `Quick
      test_event_stream_at_skipping_horizon;
    Alcotest.test_case "paper use-cases at 500k" `Quick test_paper_usecases;
  ]
