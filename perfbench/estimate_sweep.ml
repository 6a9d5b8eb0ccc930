(* estimate-sweep: [Analysis.estimate_periods_into] over all 1023 use-cases
   x the four paper estimators on a warm workspace, no simulation.  One op
   is one (use-case, estimator) estimate.  Passes visit the use-cases in
   ascending order, starting at a seeded offset. *)

open Common
module Usecase = Contention.Usecase

type state = {
  w : Exp.Workload.t;
  prepared : Analysis.prepared;
  ws : Analysis.workspace;
}

let nest = Array.length estimators
let ops_per_pass = nusecases * nest

let setup () =
  let w = workload () in
  let prepared = Analysis.prepare_workload w.apps in
  let ws = Analysis.workspace () in
  (* Grow the workspace to its high-water mark: the full use-case. *)
  let out = Array.make napps 0. in
  Array.iter
    (fun est ->
      ignore (Analysis.estimate_periods_into ws est prepared ~usecase:(Usecase.full ~napps) ~out))
    estimators;
  { w; prepared; ws }

(* The op at position [i] of the run: its use-case and estimator index
   (two functions, not a tuple, so the kernel loop allocates nothing). *)
let uc_of ~offset i = 1 + ((offset + (i mod ops_per_pass / nest)) mod nusecases)
let est_of i = i mod nest

let slot uc e = (((uc - 1) * nest) + e) * napps

(* Untraced phase: per-op latencies, per-pass rates, and the periods of
   every slot (checked to repeat across passes). *)
let untraced c st ~offset ~seconds =
  let lat = Fbuf.create () and ends = Fbuf.create () in
  let pass_rates = Fbuf.create () in
  let got = Array.make (nusecases * nest * napps) nan in
  let first = ref None in
  let out = Array.make napps 0. in
  let t_start = now () in
  let t_pass = ref t_start in
  let i = ref 0 in
  let compare_pass () =
    match !first with
    | None -> first := Some (Array.copy got)
    | Some f ->
        for uc = 1 to nusecases do
          for e = 0 to nest - 1 do
            let s = slot uc e in
            let bad = ref false in
            for a = 0 to Usecase.cardinal uc - 1 do
              if not (same_bits f.(s + a) got.(s + a)) then bad := true
            done;
            if !bad then fail c "use-case %d estimator %d: period changed between passes" uc e
          done
        done
  in
  (* Whole passes only, at least two: the window closes at the first pass
     boundary after [seconds]. *)
  while !i mod ops_per_pass <> 0 || !i < 2 * ops_per_pass || seconds_since t_start < seconds do
    let uc = uc_of ~offset !i and e = est_of !i in
    let t0 = now () in
    let n = Analysis.estimate_periods_into st.ws estimators.(e) st.prepared ~usecase:uc ~out in
    let t1 = now () in
    Fbuf.push lat (float_of_int (t1 - t0) *. 1e-3);
    Fbuf.push ends (float_of_int t1);
    Array.blit out 0 got (slot uc e) n;
    Calib.tick ();
    incr i;
    if !i mod ops_per_pass = 0 then begin
      Fbuf.push pass_rates (float_of_int ops_per_pass /. (float_of_int (t1 - !t_pass) *. 1e-9));
      t_pass := t1;
      compare_pass ()
    end
  done;
  (!i, Fbuf.contents lat, Fbuf.contents ends, Fbuf.contents pass_rates, Option.get !first)

(* Output checks: every use-case through the kernel/reference oracle, and
   the timed periods equal to the batched entry point's bit for bit. *)
let check_outputs c st first =
  let apps_of uc = Exp.Workload.analysis_apps st.w uc in
  for uc = 1 to nusecases do
    (match Check.Oracle.kernel_agreement (apps_of uc) [] with
    | [] -> ()
    | v :: _ ->
        fail c ~weight:nest "use-case %d: kernel_agreement %s: %s" uc v.Check.Oracle.property
          v.Check.Oracle.detail);
    Array.iteri
      (fun e est ->
        match Analysis.estimate_batch est st.prepared [ uc ] with
        | [ rows ] ->
            List.iteri
              (fun k (r : Analysis.estimate) ->
                if not (same_bits r.period first.(slot uc e + k)) then
                  fail c "use-case %d %s app %d: timed %h, estimate_batch %h" uc
                    (Analysis.estimator_name est) k first.(slot uc e + k) r.period)
              rows
        | _ -> fail c "use-case %d: estimate_batch returned no rows" uc)
      estimators
  done

let periods_of first uc est =
  let e =
    let rec find i = if estimators.(i) = est then i else find (i + 1) in
    find 0
  in
  Some (Array.sub first (slot uc e) (Usecase.cardinal uc))

(* Allocation of the warm kernel path, per estimate. *)
let minor_words_per_op st ~offset =
  let out = Array.make napps 0. in
  let w0 = Gc.minor_words () in
  for i = 0 to ops_per_pass - 1 do
    ignore
      (Analysis.estimate_periods_into st.ws estimators.(est_of i) st.prepared
         ~usecase:(uc_of ~offset i) ~out)
  done;
  (Gc.minor_words () -. w0) /. float_of_int ops_per_pass

let pass_counts (d : Decomp.t) =
  [ ("waiting.groups", float_of_int d.groups); ("period.calls", float_of_int d.period_calls) ]

(* Traced phase: the same ops through {!Decomp}, layer by layer; whole
   passes, at least two.  Returns the counts of the first pass, checked to
   repeat in the second. *)
let traced c st ~offset ~seconds first =
  let d = Decomp.create st.w.apps in
  let out = Array.make napps 0. in
  let t_start = now () and spent0 = !Calib.spent in
  let i = ref 0 in
  let counts = ref [] in
  while !i mod ops_per_pass <> 0 || !i < 2 * ops_per_pass || seconds_since t_start < seconds do
    let uc = uc_of ~offset !i and e = est_of !i in
    let n = Decomp.eval d estimators.(e) uc ~out in
    Calib.tick ();
    for k = 0 to n - 1 do
      if not (close out.(k) first.(slot uc e + k)) then
        fail c "use-case %d estimator %d: layer decomposition gives %h, estimate_periods_into %h" uc
          e out.(k) first.(slot uc e + k)
    done;
    incr i;
    if !i = ops_per_pass then counts := pass_counts d
    else if !i = 2 * ops_per_pass then
      same_counts c ~what:"second traced pass"
        !counts
        (List.map2 (fun (k, a) (_, b) -> (k, b -. a)) !counts (pass_counts d))
  done;
  let traced_ns = float_of_int (Calib.elapsed_without ~t0:t_start ~spent0) /. float_of_int !i in
  (!i, d, traced_ns, !counts)

let run ~seed ~seconds ~trace =
  Calib.use Calib.Bellman_ford;
  let c = checks () in
  let st, setup_metric = repeated_setup ~discard:ignore setup in
  let offset = Random.State.int (rng ~seed 2) nusecases in
  let u0 = now () in
  let n_untraced, lat, ends, pass_rates, first = untraced c st ~offset ~seconds in
  let untraced_span = (u0, now ()) in
  check_outputs c st first;
  let sweep = simulate_sample ~seed st.w in
  let err = accuracy c ~sweep ~periods:(periods_of first) in
  let e2e =
    with_pass_rates pass_rates
      (timing_metrics ~lat ~ends ~chunks:(fun a -> [ slot_medians ~nslots:ops_per_pass a ]))
    @ [ setup_metric ] @ err
  in
  let attempted, layers =
    if not trace then (n_untraced, [])
    else begin
      let words = minor_words_per_op st ~offset in
      same_counts c ~what:"second allocation pass"
        [ ("kernel.minor_words_per_usecase", words) ]
        [ ("kernel.minor_words_per_usecase", minor_words_per_op st ~offset) ];
      let t0 = now () in
      let n_traced, d, traced_ns, counts = traced c st ~offset ~seconds first in
      let traced_span = (t0, now ()) in
      let e2e_ns = mean lat *. 1e3 in
      let layer_ns = Decomp.layer_ns d /. float_of_int d.evals in
      let per_pass = [ ("per", Json.Str "pass of 1023 use-cases x 4 estimators") ] in
      ( n_untraced + n_traced,
        [ prepare_metric st.w ]
        @ Decomp.metrics d
        @ [
            metric "waiting.groups" "count" (List.assoc "waiting.groups" counts) ~prov:per_pass;
            metric "period.calls" "count" (List.assoc "period.calls" counts) ~prov:per_pass;
            metric "kernel.minor_words_per_usecase" "count" words
              ~prov:[ ("per", Json.Str "estimate_periods_into call") ];
          ]
        @ ledger_metrics ~untraced:untraced_span ~traced:traced_span ~e2e_ns ~layer_ns ~traced_ns )
    end
  in
  { attempted; checks = c; e2e; layers }
