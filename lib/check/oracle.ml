module Analysis = Contention.Analysis
module Prob = Contention.Prob

type violation = Metamorphic.violation = { property : string; detail : string }

type config = {
  sim_tolerance : float;
  comp_envelope : float;
  horizon_iterations : float;
  scaling_factor : float;
}

let default_config =
  {
    sim_tolerance = 0.02;
    comp_envelope = 2.0;
    horizon_iterations = 50.;
    scaling_factor = 2.;
  }

type outcome = { violations : violation list; errors : (string * float) list }

let passed o = o.violations = []

let estimators =
  [
    ("wc", Analysis.Worst_case);
    ("order-2", Analysis.Order 2);
    ("order-4", Analysis.Order 4);
    ("comp", Analysis.Composability);
    ("exact", Analysis.Exact);
  ]

let violation property fmt =
  Printf.ksprintf (fun detail -> { property; detail }) fmt

let rel_close ?(tol = 1e-9) a b =
  Float.abs (a -. b)
  <= tol *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

(* [ge a b] — "a >= b up to rounding", scaled like {!rel_close}. *)
let ge ?(tol = 1e-9) a b =
  a >= b -. (tol *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b)))

let finite_positive name v acc =
  if Float.is_finite v && v >= 0. then acc
  else violation "non-finite" "%s produced %h" name v :: acc

(* ------------------------------------------------------------------ *)
(* Kernel level                                                        *)

let check_kernel ?(config = default_config) ?exact rng others =
  if others = [] then []
  else
    let exact_fn =
      match exact with Some f -> f | None -> Reference.Exact.waiting_time
    in
    let n = List.length others in
    let wc = Reference.Wcrt.waiting_time others in
    let o2 = Reference.Approx.second_order others in
    let o3 = Reference.Approx.waiting_time ~order:3 others in
    let o4 = Reference.Approx.fourth_order others in
    let o5 = Reference.Approx.waiting_time ~order:5 others in
    let ex = exact_fn others in
    let comp = Contention.Compose.waiting_time others in
    let acc = [] in
    let acc =
      List.fold_left
        (fun acc (name, v) -> finite_positive ("kernel " ^ name) v acc)
        acc
        [
          ("wc", wc); ("order-2", o2); ("order-3", o3); ("order-4", o4);
          ("order-5", o5); ("exact", ex); ("comp", comp);
        ]
    in
    let acc =
      if n > 6 then acc
      else
        let bf = Reference.Exact.waiting_time_brute_force others in
        if rel_close ~tol:1e-6 ex bf then acc
        else
          violation "exact-vs-brute-force"
            "Eq. 4 gives %.17g, subset enumeration gives %.17g (%d loads)" ex
            bf n
          :: acc
    in
    let acc =
      (* Even truncations over-estimate, odd under-estimate (Section 4.1):
         o2 >= o4 >= exact >= o5 >= o3. *)
      List.fold_left
        (fun acc (na, a, nb, b) ->
          if ge a b then acc
          else
            violation "order-sandwich" "%s (%.17g) < %s (%.17g)" na a nb b
            :: acc)
        acc
        [
          ("order-2", o2, "order-4", o4);
          ("order-4", o4, "exact", ex);
          ("exact", ex, "order-5", o5);
          ("order-5", o5, "order-3", o3);
        ]
    in
    let acc =
      (* All symmetric polynomials of degree >= n vanish, so truncating at
         order n already keeps every term of Eq. 4. *)
      let full = Reference.Approx.waiting_time ~order:(max 2 n) others in
      if rel_close full ex then acc
      else
        violation "order-n-exact"
          "order-%d truncation %.17g differs from exact %.17g" (max 2 n) full
          ex
        :: acc
    in
    let acc =
      if ge wc ex then acc
      else
        violation "wc-dominates"
          "worst case %.17g below exact expectation %.17g" wc ex
        :: acc
    in
    let acc =
      (* Provable sandwich for the ⊗ fold: every combine step satisfies
         w_a + w_b <= w_ab <= 1.5 (w_a + w_b), so the aggregate lies
         between the plain sum of waiting products and that sum times
         1.5^(n-1). *)
      let base = List.fold_left (fun s l -> s +. Prob.waiting_product l) 0. others in
      let upper = base *. Float.pow 1.5 (float_of_int (n - 1)) in
      let acc =
        if ge comp base then acc
        else
          violation "comp-bounds"
            "composability %.17g below the waiting-product sum %.17g" comp
            base
          :: acc
      in
      if ge upper comp then acc
      else
        violation "comp-bounds"
          "composability %.17g above the fold bound %.17g" comp upper
        :: acc
    in
    let acc =
      if
        Float.abs (comp -. ex)
        <= config.comp_envelope *. Float.max ex 1e-6
      then acc
      else
        violation "comp-envelope"
          "composability %.17g vs exact %.17g exceeds envelope %g" comp ex
          config.comp_envelope
        :: acc
    in
    List.rev_append acc (Metamorphic.all rng others)

(* ------------------------------------------------------------------ *)
(* Case level                                                          *)

let engine_agreement (a : Analysis.app) acc =
  let ss = a.isolation_period in
  let mcm = Sdf.Hsdf.period a.graph in
  let mp = Maxplus.period a.graph in
  let pair acc na va nb vb =
    if rel_close ~tol:1e-6 va vb then acc
    else
      violation "engine-disagreement" "graph %S: %s period %.17g, %s %.17g"
        a.graph.Sdf.Graph.name na va nb vb
      :: acc
  in
  let acc = pair acc "state-space" ss "mcm" mcm in
  pair acc "state-space" ss "max-plus" mp

(* The zero-allocation kernel engine against the list-based reference: both
   evaluate the same Figure-4 pass, and the kernel replicates the reference's
   floating-point operation sequences, so waits, response times, and periods
   must agree to 1e-9 for every estimator — and the batched entry point must
   reproduce the one-at-a-time results bit for bit. *)
let kernel_agreement apps acc =
  match apps with
  | [] -> acc
  | apps ->
      let arr = Array.of_list apps in
      let caches = Array.map Analysis.prepare arr in
      let prepared = Analysis.prepare_workload ~caches arr in
      let pairs = List.map2 (fun a c -> (a, c)) apps (Array.to_list caches) in
      let ref_pairs = List.map (fun a -> (a, Reference.prepare a)) apps in
      let napps = Array.length arr in
      List.fold_left
        (fun acc (name, est) ->
          let kernel = Analysis.estimate_prepared est pairs in
          let reference = Reference.estimate_prepared est ref_pairs in
          let acc =
            List.fold_left2
              (fun acc (k : Analysis.estimate) (r : Analysis.estimate) ->
                let acc =
                  if rel_close k.period r.period then acc
                  else
                    violation "kernel-engine"
                      "%s period of %S: kernel %.17g, reference %.17g" name
                      k.for_app.graph.Sdf.Graph.name k.period r.period
                    :: acc
                in
                let fold_arr what ka ra acc =
                  snd
                    (Array.fold_left
                       (fun (i, acc) kv ->
                         ( i + 1,
                           if rel_close kv ra.(i) then acc
                           else
                             violation "kernel-engine"
                               "%s %s.(%d) of %S: kernel %.17g, reference %.17g"
                               name what i k.for_app.graph.Sdf.Graph.name kv
                               ra.(i)
                             :: acc ))
                       (0, acc) ka)
                in
                acc
                |> fold_arr "waiting_times" k.waiting_times r.waiting_times
                |> fold_arr "response_times" k.response_times r.response_times)
              acc kernel reference
          in
          if napps >= 30 then acc
          else
            let batch =
              List.concat
                (Analysis.estimate_batch est prepared
                   [ Contention.Usecase.full ~napps ])
            in
            List.fold_left2
              (fun acc (k : Analysis.estimate) (b : Analysis.estimate) ->
                if
                  Float.equal k.period b.period
                  && Array.for_all2 Float.equal k.waiting_times b.waiting_times
                  && Array.for_all2 Float.equal k.response_times
                       b.response_times
                then acc
                else
                  violation "kernel-batch"
                    "%s estimate of %S: batch differs from one-at-a-time \
                     (period %.17g vs %.17g)"
                    name k.for_app.graph.Sdf.Graph.name b.period k.period
                  :: acc)
              acc kernel batch)
        acc estimators

(* Per-processor load groups across the active applications; each entry is
   an actor's own load paired with the loads it competes with. *)
let contender_lists procs apps =
  let by_proc = Array.make procs [] in
  List.iter
    (fun (a : Analysis.app) ->
      let loads = Analysis.loads a in
      Array.iteri
        (fun actor load ->
          let proc = a.mapping.(actor) in
          by_proc.(proc) <- (load : Prob.t) :: by_proc.(proc))
        loads)
    apps;
  let entries = ref [] in
  Array.iter
    (fun loads ->
      let loads = List.rev loads in
      List.iteri
        (fun i _ ->
          let others = List.filteri (fun j _ -> j <> i) loads in
          if others <> [] then entries := others :: !entries)
        loads)
    by_proc;
  List.rev !entries

let check_estimates apps acc =
  let estimates =
    List.map (fun (name, est) -> (name, Analysis.estimate est apps)) estimators
  in
  let acc =
    List.fold_left
      (fun acc (name, ests) ->
        List.fold_left
          (fun acc (e : Analysis.estimate) ->
            let app_name = e.for_app.graph.Sdf.Graph.name in
            let acc =
              if Float.is_finite e.period && e.period > 0. then acc
              else
                violation "non-finite" "%s period of %S is %h" name app_name
                  e.period
                :: acc
            in
            if ge e.period e.for_app.isolation_period then acc
            else
              violation "below-isolation"
                "%s period of %S (%.17g) below isolation (%.17g)" name
                app_name e.period e.for_app.isolation_period
              :: acc)
          acc ests)
      acc estimates
  in
  (* Kernel ordering transfers to periods (cycle ratios are monotone in the
     execution times): wc >= o2 >= o4 >= exact. *)
  let by_name n = List.assoc n estimates in
  let ordered na nb acc =
    List.fold_left2
      (fun acc (ea : Analysis.estimate) (eb : Analysis.estimate) ->
        if ge ea.period eb.period then acc
        else
          violation "period-ordering" "%s period of %S (%.17g) < %s (%.17g)"
            na ea.for_app.graph.Sdf.Graph.name ea.period nb eb.period
          :: acc)
      acc (by_name na) (by_name nb)
  in
  (* "wc >= order-2" would NOT be sound: with four or more highly loaded
     contenders the order-2 bracket (1 + P/2 each) exceeds the worst case's
     factor 2, so only wc >= exact and the truncation chain are asserted. *)
  let acc = acc |> ordered "wc" "exact" |> ordered "order-2" "order-4" in
  let acc = ordered "order-4" "exact" acc in
  (estimates, acc)

let simulate config (t : Case.t) wc_estimates acc =
  let apps = Case.sim_apps t in
  let max_wc =
    List.fold_left
      (fun m (e : Analysis.estimate) -> Float.max m e.period)
      0. wc_estimates
  in
  let horizon = config.horizon_iterations *. max_wc in
  let results, _stats =
    Desim.Engine.run ~horizon ~procs:t.spec.procs apps
  in
  let selected = Array.of_list (Case.selected t) in
  let acc = ref acc in
  Array.iteri
    (fun i (r : Desim.Engine.result) ->
      let a = selected.(i) in
      let wc = (List.nth wc_estimates i : Analysis.estimate).period in
      if not (Float.is_finite r.avg_period) then
        acc :=
          violation "sim-starved"
            "app %S: %d iterations in horizon %g — no measurable period"
            r.app_name r.iterations horizon
          :: !acc
      else begin
        if not (ge ~tol:config.sim_tolerance r.avg_period a.isolation_period)
        then
          acc :=
            violation "sim-below-isolation"
              "app %S: simulated period %.17g below isolation %.17g"
              r.app_name r.avg_period a.isolation_period
            :: !acc;
        if not (ge ~tol:config.sim_tolerance wc r.avg_period) then
          acc :=
            violation "sim-above-wc"
              "app %S: simulated period %.17g above worst-case bound %.17g"
              r.app_name r.avg_period wc
            :: !acc
      end)
    results;
  (results, !acc)

let scaling_check config (t : Case.t) acc =
  let c = config.scaling_factor in
  match Case.scale_exec t c with
  | Error msg -> violation "crash" "scale_exec failed: %s" msg :: acc
  | Ok scaled ->
      let orig = Array.of_list (Case.selected t) in
      let doubled = Array.of_list (Case.selected scaled) in
      let acc = ref acc in
      Array.iteri
        (fun i (a : Analysis.app) ->
          let b = doubled.(i) in
          if not (rel_close (a.isolation_period *. c) b.isolation_period)
          then
            acc :=
              violation "scaling-isolation"
                "app %S: isolation %.17g scaled by %g gave %.17g"
                a.graph.Sdf.Graph.name a.isolation_period c
                b.isolation_period
              :: !acc)
        orig;
      let before = Analysis.estimate Analysis.Exact (Array.to_list orig) in
      let after = Analysis.estimate Analysis.Exact (Array.to_list doubled) in
      List.iter2
        (fun (e : Analysis.estimate) (e' : Analysis.estimate) ->
          if not (rel_close (e.period *. c) e'.period) then
            acc :=
              violation "scaling-estimate"
                "app %S: exact period %.17g scaled by %g gave %.17g"
                e.for_app.graph.Sdf.Graph.name e.period c e'.period
              :: !acc)
        before after;
      !acc

let check ?(config = default_config) (t : Case.t) =
  match
    let rng = Sdfgen.Rng.create (t.spec.seed lxor 0x5eed) in
    let apps = Case.selected t in
    let acc = List.fold_left (fun acc a -> engine_agreement a acc) [] apps in
    let acc =
      List.fold_left
        (fun acc others ->
          List.rev_append (check_kernel ~config rng others) acc)
        acc
        (contender_lists t.spec.procs apps)
    in
    let acc = kernel_agreement apps acc in
    let estimates, acc = check_estimates apps acc in
    let results, acc = simulate config t (List.assoc "wc" estimates) acc in
    let acc = scaling_check config t acc in
    let errors =
      if List.exists (fun (r : Desim.Engine.result) ->
             not (Float.is_finite r.avg_period))
           (Array.to_list results)
      then []
      else
        List.concat_map
          (fun (name, ests) ->
            List.mapi
              (fun i (e : Analysis.estimate) ->
                let sim = results.(i).avg_period in
                (name, Float.abs (e.period -. sim) /. sim *. 100.))
              ests)
          estimates
    in
    { violations = List.rev acc; errors }
  with
  | outcome -> outcome
  | exception e ->
      let bt = Printexc.get_backtrace () in
      {
        violations =
          [
            violation "crash" "%s%s" (Printexc.to_string e)
              (if bt = "" then "" else "\n" ^ bt);
          ];
        errors = [];
      }

(* ------------------------------------------------------------------ *)
(* Margin coverage                                                     *)

type coverage = {
  replays : int;
  covered : int;
  observed_coverage : float;
  served : Contention.Margin.t;
}

let margin_coverage ?(replays = 200) ?(slack = 0.02) ?(horizon = 50_000.)
    ?(seed = 0) ~procs ~spec ~app apps =
  if replays < 1 then invalid_arg "Check.Oracle.margin_coverage: replays < 1";
  let ctl = Contention.Admission.create ~procs () in
  List.iter
    (fun a ->
      ignore (Contention.Admission.try_admit ctl a Contention.Admission.best_effort))
    apps;
  let served = Contention.Admission.margin_for ctl spec app in
  let sim_apps =
    Array.of_list
      (List.map
         (fun (a : Analysis.app) ->
           { Desim.Engine.graph = a.graph; mapping = a.mapping })
         apps)
  in
  let dists =
    Array.of_list (List.map (fun (a : Analysis.app) -> a.distributions) apps)
  in
  let app_pos =
    let rec find i = function
      | [] ->
          invalid_arg
            (Printf.sprintf
               "Check.Oracle.margin_coverage: %S not in the population" app)
      | (a : Analysis.app) :: rest ->
          if String.equal a.graph.Sdf.Graph.name app then i
          else find (i + 1) rest
    in
    find 0 apps
  in
  let covered = ref 0 in
  let acc = ref [] in
  for rep = 1 to replays do
    (* One replay = one draw of every variable execution time = one
       Bernoulli trial of the coverage claim.  Constant-time apps replay
       identically, which degenerates to a single pass/fail — still a valid
       (if blunt) instance of the claim. *)
    let rng = Sdfgen.Rng.create ((seed * 1_000_003) + rep) in
    let firing_time ~app:ai ~actor =
      match dists.(ai) with
      | None -> (Sdf.Graph.actor sim_apps.(ai).Desim.Engine.graph actor).exec_time
      | Some ds ->
          Contention.Dist.sample ds.(actor) ~u:(Sdfgen.Rng.float rng 1.)
    in
    let results, _ = Desim.Engine.run ~horizon ~firing_time ~procs sim_apps in
    let r = results.(app_pos) in
    if not (Float.is_finite r.Desim.Engine.avg_period) then
      acc :=
        violation "margin-starved"
          "replay %d: no measurable period for %S within horizon %g" rep app
          horizon
        :: !acc
    else if Contention.Margin.covers served r.Desim.Engine.avg_period then
      incr covered
  done;
  let observed = float_of_int !covered /. float_of_int replays in
  let acc =
    if observed +. slack >= served.Contention.Margin.confidence then !acc
    else
      violation "margin-coverage"
        "%S: observed coverage %.4f over %d replays below stated confidence \
         %.4f (slack %g) for [%g, %g]"
        app observed replays served.Contention.Margin.confidence slack
        served.Contention.Margin.lo served.Contention.Margin.hi
      :: !acc
  in
  ( { replays; covered = !covered; observed_coverage = observed; served },
    List.rev acc )
