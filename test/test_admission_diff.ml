(* Differential test of the admission controller's period engine: every
   period [Contention.Admission] computes on the kernel engine must equal,
   bit for bit, what the list-based controller kept in
   [Admission_reference] computes with [Sdf.Hsdf.period] on the graph
   carrying the same response times.  Both controllers are driven in
   lockstep through the same operations; compared are the verdicts (the
   candidate's period, a rejected candidate's or victim's throughput), every
   resident's [estimated_period_via] under each estimator, and the z-score
   and quantile margins (bounds, mean and spread of the draws). *)

open Contention
module R = Admission_reference

let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let check_float what kernel oracle =
  if not (same kernel oracle) then
    Alcotest.failf "%s: kernel %.17g, list oracle %.17g" what kernel oracle

let check_margin what (m : Margin.t) (r : Margin.t) =
  check_float (what ^ ": margin period") m.period r.period;
  check_float (what ^ ": margin lo") m.lo r.lo;
  check_float (what ^ ": margin hi") m.hi r.hi;
  check_float (what ^ ": margin mean") m.mean r.mean;
  check_float (what ^ ": margin std") m.std r.std;
  if m.samples <> r.samples || m.method_ <> r.method_ then
    Alcotest.failf "%s: margins of different shape" what

type pair = { ctl : Admission.t; oracle : R.t }

let create ~procs = { ctl = Admission.create ~procs (); oracle = R.create ~procs () }

let estimators = Analysis.Exact :: Analysis.all_paper_estimators

let z_spec = Admission.default_margin_spec

(* Few draws keep the list oracle affordable; each draw is one period. *)
let q_spec = { z_spec with Admission.method_ = Margin.Quantile; samples = 24 }

(* Both sides must agree on raising too, with the same message. *)
let outcome f = match f () with v -> Ok v | exception Invalid_argument m -> Error m

let admit ?margin p (app : Analysis.app) req =
  let name = app.graph.Sdf.Graph.name in
  match
    ( outcome (fun () -> Admission.try_admit ?margin p.ctl app req),
      outcome (fun () -> R.try_admit ?margin p.oracle app req) )
  with
  | Ok (Admission.Admitted { period; margin = m }), Ok (R.Admitted { margin = r })
    -> (
      check_float (name ^ ": admitted period") period
        (R.estimated_period p.oracle name);
      match (m, r) with
      | Some m, Some r -> check_margin name m r
      | None, None -> ()
      | _ -> Alcotest.failf "%s: one side has no margin" name)
  | ( Ok (Admission.Rejected_candidate { estimated; required }),
      Ok (R.Rejected_candidate { estimated = e; required = q }) ) ->
      check_float (name ^ ": rejected candidate") estimated e;
      check_float (name ^ ": requirement") required q
  | ( Ok (Admission.Rejected_victim { app = v; estimated; _ }),
      Ok (R.Rejected_victim { app = v'; estimated = e; _ }) ) ->
      Alcotest.(check string) (name ^ ": victim") v' v;
      check_float (name ^ ": victim throughput") estimated e
  | Error m, Error m' -> Alcotest.(check string) (name ^ ": error") m' m
  | _ -> Alcotest.failf "%s: the verdicts differ" name

let check_residents ?(margins = true) p =
  List.iter
    (fun (name, _, _) ->
      List.iter
        (fun est ->
          check_float
            (Printf.sprintf "%s under %s" name (Analysis.estimator_name est))
            (Admission.estimated_period_via p.ctl est name)
            (R.estimated_period_via p.oracle est name))
        estimators;
      if margins then
        List.iter
          (fun spec ->
            check_margin name
              (Admission.margin_for p.ctl spec name)
              (R.margin_for p.oracle spec name))
          [ z_spec; q_spec ])
    (Admission.admitted p.ctl)

let withdraw p name =
  Admission.withdraw p.ctl name;
  R.withdraw p.oracle name

let observe p name ~factor =
  let period = Admission.estimated_period p.ctl name in
  check_float (name ^ ": estimated period") period (R.estimated_period p.oracle name);
  Admission.observe p.ctl name ~measured_period:(factor *. period);
  R.observe p.oracle name ~measured_period:(factor *. period)

(* ------------------------------------------------------------------ *)
(* Generated populations *)

let procs = 3

let graph_params =
  {
    Sdfgen.Generator.default_params with
    actors_min = 2;
    actors_max = 5;
    exec_min = 1;
    exec_max = 30;
  }

(* One application per [(seed, strictness, margin)] triple: a generated
   graph on a modulo mapping, a requirement at a fraction of its isolation
   throughput (0 = best effort; the strict ones get rejected or pin the
   earlier residents as victims), and a margin request of either method. *)
let population_gen =
  QCheck2.Gen.(
    list_size (int_range 1 6)
      (triple (int_range 0 1_000_000) (int_range 0 3) (int_range 0 2)))

let app_of i seed =
  let g =
    Sdfgen.Generator.generate ~params:graph_params (Sdfgen.Rng.create seed)
      ~name:(Printf.sprintf "G%d" i)
  in
  Analysis.app g ~period:(Sdf.Hsdf.period g)
    ~mapping:(Mapping.modulo ~procs g)

(* The isolation throughput fraction each strictness asks for. *)
let fractions = [| 0.; 0.5; 0.9; 0.999 |]

let run_population ~extra specs =
  let p = create ~procs in
  let apps =
    extra
    @ List.mapi
        (fun i (seed, strict, margin) ->
          let app = app_of i seed in
          let req =
            {
              Admission.min_throughput =
                fractions.(strict) /. app.Analysis.isolation_period;
            }
          in
          let margin = [| None; Some z_spec; Some q_spec |].(margin) in
          (app, req, margin))
        specs
  in
  List.iter
    (fun (app, req, margin) ->
      admit ?margin p app req;
      check_residents ~margins:false p)
    apps;
  check_residents p;
  (* Calibrate the oldest resident, then withdraw in admission order: the
     non-LIFO ⊖ path, drift refolds and, for a saturated resident, the
     rebuild. *)
  (match List.rev (Admission.admitted p.ctl) with
  | (name, _, _) :: _ -> observe p name ~factor:1.3
  | [] -> ());
  List.iter
    (fun (name, _, _) ->
      withdraw p name;
      check_residents ~margins:false p)
    (List.rev (Admission.admitted p.ctl));
  true

let prop_populations =
  Fixtures.qcheck_case ~count:40 "kernel periods = list oracle" population_gen
    (run_population ~extra:[])

(* A single-actor self-loop has utilisation 1 at its isolation period: a
   saturated (P = 1) actor, whose waiting time cannot be deconvolved from
   the aggregate and is folded from the other co-mapped actors instead. *)
let prop_saturated =
  let saturated =
    ( Analysis.app (Fixtures.single ~tau:9. ()) ~period:9. ~mapping:[| 0 |],
      Admission.best_effort,
      Some z_spec )
  in
  Fixtures.qcheck_case ~count:20 "saturated actor = list oracle" population_gen
    (fun specs ->
      let (app, _, _) = saturated in
      assert ((Analysis.loads app).(0).Prob.p >= 1.);
      run_population ~extra:[ saturated ] specs)

(* G1's actors see almost no spread in the inflicted wait, so its z-score
   bounds are two periods of near-identical response times; bisection
   noise put the lower above the upper, and the margin used to be refused
   with "lo > hi". *)
let test_tight_z_margin () =
  let p = create ~procs in
  let saturated =
    Analysis.app (Fixtures.single ~tau:9. ()) ~period:9. ~mapping:[| 0 |]
  in
  let g0 = app_of 0 0 and g1 = app_of 1 772250 in
  admit p saturated Admission.best_effort;
  admit p g0 { Admission.min_throughput = 0.9 /. g0.Analysis.isolation_period };
  admit p g1 Admission.best_effort;
  let m = Admission.margin_for p.ctl z_spec "G1" in
  Alcotest.(check bool) "lo <= period <= hi" true
    (m.lo <= m.period && m.period <= m.hi);
  check_residents p

(* ------------------------------------------------------------------ *)
(* A churn stream *)

(* The join/observe/leave stream of [Check.Fuzz.churn] (same draws, same
   applications), replayed on both controllers with every resident compared
   every [check_every] events. *)
let test_churn_stream () =
  let config =
    { Check.Fuzz.default_churn_config with resident = 12; events = 240 }
  in
  let check_every = 20 in
  let rng = Sdfgen.Rng.create 11 in
  let p = create ~procs:config.procs in
  let resident = ref [] and next_id = ref 0 in
  for step = 1 to config.events do
    let population = List.length !resident in
    let die = Sdfgen.Rng.int rng (2 * config.resident) in
    if population = 0 || die >= population then begin
      incr next_id;
      let name = Printf.sprintf "J%d" !next_id in
      let app =
        Check.Fuzz.churn_app rng ~procs:config.procs
          ~period_slack:config.period_slack ~name
      in
      admit p app Admission.best_effort;
      resident := name :: !resident
    end
    else if Sdfgen.Rng.int rng 5 = 0 then begin
      let name = List.nth !resident (Sdfgen.Rng.int rng population) in
      observe p name ~factor:(1.0 +. Sdfgen.Rng.float rng 1.0)
    end
    else begin
      let name = List.nth !resident (Sdfgen.Rng.int rng population) in
      withdraw p name;
      resident := List.filter (fun n -> n <> name) !resident
    end;
    if step mod check_every = 0 then check_residents ~margins:(step mod 60 = 0) p
  done;
  Alcotest.(check int) "full rebuilds" 0 (Admission.counters p.ctl).full_rebuilds

let suite =
  [
    prop_populations;
    prop_saturated;
    Alcotest.test_case "tight z-score margin" `Quick test_tight_z_margin;
    Alcotest.test_case "churn stream = list oracle" `Quick test_churn_stream;
  ]
