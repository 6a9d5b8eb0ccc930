(* simulate-sweep: [Exp.Sweep.run ~jobs:1] at the paper's horizon over a
   seeded sample of use-cases with all four estimators.  One op is
   one use-case simulated and estimated; per-op time comes from the sweep's
   [progress] callback. *)

open Common

let horizon = 500_000.
let sample_size = accuracy_sample_size

type state = { w : Exp.Workload.t; usecases : int array }

let setup ~seed () =
  let w = workload () in
  (* What [Exp.Sweep.run] hoists before its first use-case. *)
  Array.iter (fun a -> ignore (Sys.opaque_identity (Analysis.prepare a))) w.apps;
  { w; usecases = sample ~seed sample_size }

exception Window_closed

(* Untraced phase: passes until the window closes, the last one cut short
   from inside [progress] once two have completed. *)
let untraced c st ~seconds =
  let lat = Fbuf.create () and ends = Fbuf.create () in
  let pass_rates = Fbuf.create () in
  let sim_share = Fbuf.create () and ana_share = Fbuf.create () in
  let first = ref None and complete = ref 0 in
  let ops = ref 0 in
  let t_start = now () in
  let rec pass () =
    let t_pass = now () and spent0 = !Calib.spent in
    let last = ref t_pass in
    let progress _ _ =
      let t = now () in
      Fbuf.push lat (float_of_int (t - !last) *. 1e-3);
      Fbuf.push ends (float_of_int t);
      Calib.tick ();
      last := now ();
      incr ops;
      if !complete >= 2 && seconds_since t_start >= seconds then raise Window_closed
    in
    match Exp.Sweep.run ~jobs:1 ~horizon ~usecases:(Array.to_list st.usecases) ~progress st.w with
    | exception Window_closed -> ()
    | s ->
        let wall = float_of_int (Calib.elapsed_without ~t0:t_pass ~spent0) *. 1e-9 in
        Fbuf.push pass_rates (float_of_int sample_size /. wall);
        Fbuf.push sim_share (100. *. s.timing.simulation_s /. wall);
        Fbuf.push ana_share
          (100. *. List.fold_left (fun acc (_, x) -> acc +. x) 0. s.timing.analysis_s /. wall);
        (match !first with
        | None -> first := Some s
        | Some f ->
            if compare f.observations s.observations <> 0 then
              fail c ~weight:sample_size "a repeated pass gave different periods");
        incr complete;
        if !complete < 2 || seconds_since t_start < seconds then pass ()
  in
  pass ();
  ( !ops,
    Fbuf.contents lat,
    Fbuf.contents ends,
    Fbuf.contents pass_rates,
    (Fbuf.contents sim_share, Fbuf.contents ana_share),
    Option.get !first )

(* Traced phase: each use-case's simulation through [Desim.Engine.run] and
   its four estimates through {!Decomp}; whole passes, at least two, whose
   counts must agree. *)
let traced c st ~seconds (first : Exp.Sweep.t) =
  let d = Decomp.create st.w.apps in
  let out = Array.make napps 0. in
  let obs = Array.of_list first.observations in
  let desim_ns = ref 0 and firings = ref 0 and words = ref 0. and ops = ref 0 in
  let pass_counts = ref [] in
  let t_start = now () and spent0 = !Calib.spent in
  let rec pass () =
    let f0 = !firings and w0 = !words and g0 = d.groups and p0 = d.period_calls in
    let mc0 = (Gc.quick_stat ()).minor_collections in
    let base = ref 0 in
    Array.iter
      (fun uc ->
        let t0 = now () in
        let apps = Exp.Workload.sim_apps st.w uc in
        let firing_time = Exp.Workload.sim_firing_time st.w uc in
        let mw0 = Gc.minor_words () in
        let results, stats = Desim.Engine.run ~horizon ?firing_time ~procs:st.w.procs apps in
        words := !words +. (Gc.minor_words () -. mw0);
        desim_ns := !desim_ns + (now () - t0);
        firings := !firings + stats.total_firings;
        let n = Array.length results in
        Array.iteri
          (fun k (r : Desim.Engine.result) ->
            if not (same_bits r.avg_period obs.(!base + k).simulated_period) then
              fail c "use-case %d app %d: simulated period %h, sweep %h" uc k r.avg_period
                obs.(!base + k).simulated_period)
          results;
        Array.iter
          (fun est ->
            ignore (Decomp.eval d est uc ~out);
            for k = 0 to n - 1 do
              let expected = List.assoc est obs.(!base + k).estimated_periods in
              if not (close out.(k) expected) then
                fail c "use-case %d %s app %d: layer decomposition %h, sweep %h" uc
                  (Analysis.estimator_name est) k out.(k) expected
            done)
          estimators;
        base := !base + n;
        incr ops;
        Calib.tick ())
      st.usecases;
    let counts =
      [
        ("desim.firings", float_of_int (!firings - f0));
        ("desim.minor_words_per_firing", (!words -. w0) /. float_of_int (!firings - f0));
        ("waiting.groups", float_of_int (d.groups - g0));
        ("period.calls", float_of_int (d.period_calls - p0));
      ]
    in
    (match List.rev !pass_counts with
    | [] -> ()
    | (first, _) :: _ -> same_counts c ~what:"repeated traced pass" first counts);
    pass_counts := (counts, (Gc.quick_stat ()).minor_collections - mc0) :: !pass_counts;
    if List.length !pass_counts < 2 || seconds_since t_start < seconds then pass ()
  in
  pass ();
  let traced_ns = float_of_int (Calib.elapsed_without ~t0:t_start ~spent0) /. float_of_int !ops in
  (!ops, d, float_of_int !desim_ns, !firings, !words, List.rev !pass_counts, traced_ns)

let run ~seed ~seconds ~trace =
  Calib.use Calib.Event_loop;
  let c = checks () in
  let st, setup_metric = repeated_setup ~discard:ignore (setup ~seed) in
  let u0 = now () in
  let n_untraced, lat, ends, pass_rates, (sim_share, ana_share), first = untraced c st ~seconds in
  let untraced_span = (u0, now ()) in
  let err = accuracy c ~sweep:first ~periods:(fun _ _ -> None) in
  let e2e =
    with_pass_rates pass_rates
      (timing_metrics ~lat ~ends ~chunks:(fun a -> [ slot_medians ~nslots:sample_size a ]))
    @ [ setup_metric ] @ err
  in
  let attempted, layers =
    if not trace then (n_untraced, [])
    else begin
      let t0 = now () in
      let n_traced, d, desim_ns, firings, words, passes, traced_ns = traced c st ~seconds first in
      let traced_span = (t0, now ()) in
      let counts, minor_collections = List.hd passes in
      let e2e_ns = mean lat *. 1e3 in
      let layer_ns = (desim_ns +. Decomp.layer_ns d) /. float_of_int n_traced in
      let per_pass =
        [ ("per", Json.Str (Printf.sprintf "pass of %d sampled use-cases" sample_size)) ]
      in
      let count name = metric name "count" (List.assoc name counts) ~prov:per_pass in
      ( n_untraced + n_traced,
        [ prepare_metric st.w ]
        @ Decomp.metrics d
        @ [
            count "waiting.groups";
            count "period.calls";
            metric "desim.ns_per_firing" "ns" (desim_ns /. float_of_int firings)
              ~prov:[ ("firings", int firings) ];
            count "desim.firings";
            metric "desim.minor_words_per_firing" "count"
              (List.assoc "desim.minor_words_per_firing" counts)
              ~prov:[ ("minor_words", num words) ];
            metric "desim.minor_collections" "count" (float_of_int minor_collections)
              ~prov:per_pass;
            summarised "sweep.simulation_share_pct" "%" sim_share;
            summarised "sweep.analysis_share_pct" "%" ana_share;
          ]
        @ ledger_metrics ~untraced:untraced_span ~traced:traced_span ~e2e_ns ~layer_ns ~traced_ns )
    end
  in
  { attempted; checks = c; e2e; layers }
