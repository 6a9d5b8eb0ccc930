open Desim

let dedicated graph =
  { Engine.graph; mapping = Contention.Mapping.dedicated graph }

let test_isolated_matches_statespace () =
  let g = Fixtures.graph_a () in
  let results, _ = Engine.run ~procs:3 [| dedicated g |] in
  Fixtures.check_float ~eps:1e-6 "avg period" 300. results.(0).Engine.avg_period;
  Fixtures.check_float ~eps:1e-6 "max period" 300. results.(0).Engine.max_period;
  Fixtures.check_float ~eps:1e-6 "min period" 300. results.(0).Engine.min_period

let test_paper_shared_period () =
  (* Section 3: A and B share Proc_i for actor i; in practice the period
     stays 300 (the probabilistic estimate of 359 is conservative). *)
  let apps =
    [|
      { Engine.graph = Fixtures.graph_a (); mapping = [| 0; 1; 2 |] };
      { Engine.graph = Fixtures.graph_b (); mapping = [| 0; 1; 2 |] };
    |]
  in
  let results, _ = Engine.run ~procs:3 apps in
  Fixtures.check_float ~eps:1e-6 "Per(A) shared" 300. results.(0).Engine.avg_period;
  Fixtures.check_float ~eps:1e-6 "Per(B) shared" 300. results.(1).Engine.avg_period

let test_full_contention_on_one_proc () =
  (* Two independent single-actor apps on one processor: each actor wants to
     run 7 of every 7 time units; sharing doubles both periods. *)
  let app name =
    { Engine.graph =
        Sdf.Graph.create ~name ~actors:[| (name, 7.) |] ~channels:[| (0, 0, 1, 1, 1) |];
      mapping = [| 0 |] }
  in
  let results, stats = Engine.run ~horizon:70_000. ~procs:1 [| app "x"; app "y" |] in
  Fixtures.check_float ~eps:1e-3 "x period doubles" 14. results.(0).Engine.avg_period;
  Fixtures.check_float ~eps:1e-3 "y period doubles" 14. results.(1).Engine.avg_period;
  (* The processor is saturated. *)
  let util = Engine.utilisation stats in
  Alcotest.(check bool) "utilisation ~1" true (util.(0) > 0.99 && util.(0) <= 1.0001)

let test_horizon_and_stats () =
  let g = Fixtures.graph_a () in
  let results, stats = Engine.run ~horizon:3000. ~warmup_iterations:0 ~procs:3 [| dedicated g |] in
  Alcotest.(check int) "iterations by horizon" 10 results.(0).Engine.iterations;
  Alcotest.(check bool) "final time within horizon" true (stats.Engine.final_time <= 3000.);
  (* One iteration = 4 firings (q = [1;2;1]). *)
  Alcotest.(check bool) "firings consistent" true (stats.Engine.total_firings >= 40)

let test_busy_time_accounting () =
  let g = Fixtures.graph_a () in
  let results, stats = Engine.run ~horizon:30_000. ~procs:3 [| dedicated g |] in
  (* Busy time per proc equals firings x tau; proc 1 runs a1 twice per
     iteration at tau 50, procs 0 and 2 run 100 per iteration. *)
  let busy = results.(0).Engine.busy_time in
  Alcotest.(check int) "busy array length" 3 (Array.length busy);
  Array.iteri
    (fun p b -> Fixtures.check_float ~eps:1e-9 "app busy = proc busy" stats.Engine.proc_busy.(p) b)
    busy;
  (* Every iteration contributes 100 to proc 0 and 2x50 to proc 1. *)
  Alcotest.(check bool) "proc0 ~ proc1 busy" true
    (Fixtures.float_eq ~eps:0.05 busy.(0) busy.(1))

let test_warmup_excluded () =
  let g = Fixtures.graph_a () in
  let results, _ = Engine.run ~horizon:10_000. ~warmup_iterations:5 ~procs:3 [| dedicated g |] in
  (* 33 iterations fit in 10000; 5 are warm-up, stats cover the rest. *)
  Alcotest.(check bool) "iterations counted" true (results.(0).Engine.iterations >= 30);
  Fixtures.check_float ~eps:1e-6 "avg stable" 300. results.(0).Engine.avg_period

let test_too_short_horizon_gives_nan () =
  let g = Fixtures.graph_a () in
  let results, _ = Engine.run ~horizon:100. ~procs:3 [| dedicated g |] in
  Alcotest.(check bool) "nan avg" true (Float.is_nan results.(0).Engine.avg_period)

let test_validation () =
  let g = Fixtures.graph_a () in
  (match Engine.run ~procs:3 [||] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty app set accepted");
  (match Engine.run ~procs:2 [| dedicated g |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "mapping outside procs accepted");
  match Engine.run ~procs:3 [| { Engine.graph = g; mapping = [| 0 |] } |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "short mapping accepted"

let test_events_emitted () =
  let g = Fixtures.pipeline () in
  let starts = ref 0 and finishes = ref 0 in
  let on_event = function
    | Engine.Start _ -> incr starts
    | Engine.Finish _ -> incr finishes
  in
  let _ = Engine.run ~horizon:80. ~on_event ~procs:2 [| dedicated g |] in
  Alcotest.(check bool) "starts happened" true (!starts > 0);
  (* All but possibly the in-flight firing finish. *)
  Alcotest.(check bool) "finishes close to starts" true (!starts - !finishes <= 2)

let test_bad_firing_time_rejected () =
  (* NaN would break the heap's (time, seq) order and +infinity would end
     the run early without a word; both are refused like negative times. *)
  let apps = [| dedicated (Fixtures.graph_a ()) |] in
  List.iter
    (fun (what, t) ->
      match Engine.run ~horizon:1000. ~firing_time:(fun ~app:_ ~actor:_ -> t) ~procs:3 apps with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "firing_time %s accepted" what)
    [ ("NaN", Float.nan); ("+infinity", Float.infinity); ("negative", -1.) ]

let test_bad_horizon_rejected () =
  (* A NaN or infinite horizon used to hang both simulators, and a negative
     one silently reported no iterations. *)
  let apps = [| dedicated (Fixtures.graph_a ()) |] in
  List.iter
    (fun (what, horizon) ->
      (match Engine.run ~horizon ~procs:3 apps with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "Engine.run accepted horizon %s" what);
      match Preemptive.run ~horizon ~wheel:10. ~procs:3 apps with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "Preemptive.run accepted horizon %s" what)
    [ ("nan", Float.nan); ("+inf", Float.infinity); ("-inf", Float.neg_infinity); ("-5", -5.) ];
  let results, stats = Engine.run ~horizon:0. ~procs:3 apps in
  Alcotest.(check int) "horizon 0: no iterations" 0 results.(0).Engine.iterations;
  Fixtures.check_float ~eps:0. "horizon 0: final time" 0. stats.Engine.final_time

(* Minor words and firings of a run; the first call warms the domain's
   cycle store, the ones compared run on it warm. *)
let measured ~horizon ~procs apps =
  let w0 = Gc.minor_words () in
  let results, stats = Engine.run ~horizon ~procs apps in
  (Gc.minor_words () -. w0, results, stats)

let check_flat_words ~what ~horizon ~procs apps =
  ignore (measured ~horizon ~procs apps);
  let single, _, s1 = measured ~horizon ~procs apps in
  let double, r2, s2 = measured ~horizon:(2. *. horizon) ~procs apps in
  let f1 = s1.Engine.total_firings and f2 = s2.Engine.total_firings in
  if f2 - f1 <= 10_000 then Alcotest.failf "%s: too few extra firings: %d -> %d" what f1 f2;
  if double -. single >= 8. then
    Alcotest.failf "%s allocates: %g minor words at %d firings, %g at %d" what single f1 double
      f2;
  (s1, s2, r2)

let test_firing_loop_allocates_nothing () =
  (* The allocation budget: with [on_event] and [firing_time] absent, a run
     allocates only its O(actors + channels) set-up, so doubling the horizon
     must leave the minor-word count unchanged while the firings grow.  Both
     windows include the same constant cost (the boxed float Gc.minor_words
     itself returns).  These runs skip cycles, so their extra firings are
     mostly extrapolated: the companion test below keeps the firing loop
     itself gated. *)
  let graphs =
    Sdfgen.Generator.generate_many ~seed:11 3
      ~params:{ Sdfgen.Generator.default_params with actors_min = 4; actors_max = 6 }
  in
  let apps =
    Array.map (fun g -> { Engine.graph = g; mapping = Contention.Mapping.modulo ~procs:2 g }) graphs
  in
  let s1, _, _ = check_flat_words ~what:"run" ~horizon:500_000. ~procs:2 apps in
  Alcotest.(check bool) "the run skips cycles" true (Option.is_some s1.Engine.cycle)

let test_checkpoints_allocate_nothing () =
  (* Two apps on their own processors, with periods 1001 and 1013: the
     joint state at app 0's iterations first recurs after
     lcm(1001, 1013) = 1,014,013 time units, past both horizons.  Every
     firing is stepped and every app-0 iteration is a checkpoint looked up
     in the warm store, so equal minor words at H and 2H gate the firing
     loop and the checkpoints together. *)
  let app name n proc =
    {
      Engine.graph =
        Sdf.Graph.create ~name
          ~actors:[| (name ^ "0", 1.); (name ^ "1", 1.) |]
          ~channels:[| (0, 1, 1, n, 0); (1, 0, n, 1, n) |];
      mapping = [| proc; proc |];
    }
  in
  let apps = [| app "x" 1000 0; app "y" 1012 1 |] in
  let s1, s2, r2 =
    check_flat_words ~what:"firing loop with checkpoints" ~horizon:500_000. ~procs:2 apps
  in
  Alcotest.(check bool) "no cycle at H" true (Option.is_none s1.Engine.cycle);
  Alcotest.(check bool) "no cycle at 2H" true (Option.is_none s2.Engine.cycle);
  Fixtures.check_float ~eps:0. "x period" 1001. r2.(0).Engine.avg_period;
  Fixtures.check_float ~eps:0. "y period" 1013. r2.(1).Engine.avg_period;
  (* Roughly 500 extra checkpoints between H and 2H. *)
  Alcotest.(check bool) "checkpoints between H and 2H" true (r2.(0).Engine.iterations > 900)

(* Contention can only hurt: the simulated shared period of an app is at
   least (up to measurement noise) its isolation period. *)
let prop_contention_monotone =
  Fixtures.qcheck_case ~count:40 "shared period >= isolation"
    QCheck2.Gen.(pair Fixtures.graph_gen Fixtures.graph_gen)
    (fun (g1, g2) ->
      let iso = Sdf.Statespace.period_exn g1 in
      let procs = 2 in
      let apps =
        [|
          { Engine.graph = g1; mapping = Contention.Mapping.modulo ~procs g1 };
          { Engine.graph = Sdf.Graph.create ~name:"H"
              ~actors:(Array.map (fun (a : Sdf.Graph.actor) -> (a.name ^ "h", a.exec_time)) g2.actors)
              ~channels:(Array.map (fun (c : Sdf.Graph.channel) ->
                (c.src, c.dst, c.produce, c.consume, c.tokens)) g2.channels);
            mapping = Contention.Mapping.modulo ~procs g2 };
        |]
      in
      let results, _ = Engine.run ~horizon:100_000. ~procs apps in
      let shared = results.(0).Engine.avg_period in
      Float.is_nan shared || shared +. 1e-6 >= iso -. 1e-6)

let suite =
  [
    Alcotest.test_case "isolated matches statespace" `Quick test_isolated_matches_statespace;
    Alcotest.test_case "paper shared period" `Quick test_paper_shared_period;
    Alcotest.test_case "saturated processor" `Quick test_full_contention_on_one_proc;
    Alcotest.test_case "horizon and stats" `Quick test_horizon_and_stats;
    Alcotest.test_case "busy time accounting" `Quick test_busy_time_accounting;
    Alcotest.test_case "warmup excluded" `Quick test_warmup_excluded;
    Alcotest.test_case "short horizon -> nan" `Quick test_too_short_horizon_gives_nan;
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "events emitted" `Quick test_events_emitted;
    Alcotest.test_case "bad firing_time rejected" `Quick test_bad_firing_time_rejected;
    Alcotest.test_case "bad horizon rejected" `Quick test_bad_horizon_rejected;
    Alcotest.test_case "firing loop allocation budget" `Quick test_firing_loop_allocates_nothing;
    Alcotest.test_case "checkpoint allocation budget" `Quick test_checkpoints_allocate_nothing;
    prop_contention_monotone;
  ]
