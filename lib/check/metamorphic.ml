module Prob = Contention.Prob

type violation = { property : string; detail : string }

let violation property fmt = Printf.ksprintf (fun detail -> { property; detail }) fmt

(* Relative closeness with an absolute floor: kernel outputs are sums of
   [mu * p] products, so values far below any load's mu are pure rounding. *)
let close ?(tol = 1e-9) a b =
  Float.abs (a -. b) <= tol *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

let kernels =
  [
    ("wc", Reference.Wcrt.waiting_time);
    ("order-2", Reference.Approx.second_order);
    ("order-4", Reference.Approx.fourth_order);
    ("exact", Reference.Exact.waiting_time);
  ]

let permutation_invariance rng loads =
  let arr = Array.of_list loads in
  Sdfgen.Rng.shuffle rng arr;
  let shuffled = Array.to_list arr in
  let sym =
    List.filter_map
      (fun (name, kernel) ->
        let w = kernel loads and w' = kernel shuffled in
        if close w w' then None
        else
          Some
            (violation "meta-permutation" "%s: %.17g reordered to %.17g" name
               w w'))
      kernels
  in
  (* The ⊗ fold is associative only to second order, so the composability
     waiting product is genuinely order-dependent — only the ⊕ probability
     component is exactly symmetric (Eq. 6). *)
  let module C = Contention.Compose in
  let agg l = C.combine_all (List.map C.of_load l) in
  let p = (agg loads).C.p and p' = (agg shuffled).C.p in
  if close p p' then sym
  else
    violation "meta-permutation" "comp ⊕: %.17g reordered to %.17g" p p'
    :: sym

let scale_load c (l : Prob.t) =
  Prob.make ~p:l.p ~mu:(l.mu *. c) ~tau:(l.tau *. c)

let time_scaling rng loads =
  let c = 0.5 +. Sdfgen.Rng.float rng 7.5 in
  let scaled = List.map (scale_load c) loads in
  List.filter_map
    (fun (name, kernel) ->
      let w = kernel loads and w' = kernel scaled in
      if close (w *. c) w' then None
      else
        Some
          (violation "meta-scaling"
             "%s: scaling blocking times by %g took W from %.17g to %.17g, \
              expected %.17g"
             name c w w' (w *. c)))
    (kernels @ [ ("comp", Contention.Compose.waiting_time) ])

let monotone_kernels =
  (* Order 4 truncates after a negative term and is not monotone in added
     contenders in general, so it is excluded here (its bounds are checked
     against the exact series in the oracle instead). *)
  [
    ("wc", Reference.Wcrt.waiting_time);
    ("order-2", Reference.Approx.second_order);
    ("exact", Reference.Exact.waiting_time);
    ("comp", Contention.Compose.waiting_time);
  ]

let monotonicity rng loads =
  let tau = 1. +. Sdfgen.Rng.float rng 99. in
  let extra =
    Prob.make ~p:(0.05 +. Sdfgen.Rng.float rng 0.9) ~mu:(tau /. 2.) ~tau
  in
  List.filter_map
    (fun (name, kernel) ->
      let w = kernel loads and w' = kernel (loads @ [ extra ]) in
      if w' >= w -. 1e-12 then None
      else
        Some
          (violation "meta-monotonicity"
             "%s: adding a contender (p=%g tau=%g) decreased W from %.17g to \
              %.17g"
             name extra.p extra.tau w w'))
    monotone_kernels

let compose_roundtrip loads =
  let module C = Contention.Compose in
  (* ⊗ is not associative beyond second order, so ⊖ only inverts the LAST
     ⊕/⊗ application (the compose.mli contract): build the aggregate with
     the probed load combined last, then remove it. *)
  List.concat
    (List.mapi
       (fun i (l : Prob.t) ->
         if l.p > 0.999 then
           (* Near-saturated load: the ⊖ inverse divides by (1 - p) and
              loses all precision; the paper notes the inverse does not
              exist at p = 1, so skip rather than report numerics as
              violations. *)
           []
         else
           let others =
             List.filteri (fun j _ -> j <> i) loads
             |> List.map C.of_load |> C.combine_all
           in
           let total = C.combine others (C.of_load l) in
           let recovered = C.remove ~total (C.of_load l) in
           if
             close ~tol:1e-6 recovered.C.p others.C.p
             && close ~tol:1e-6 recovered.C.w others.C.w
           then []
           else
             [
               violation "meta-compose-roundtrip"
                 "removing load %d (p=%g): recovered (p=%.17g w=%.17g), \
                  direct (p=%.17g w=%.17g)"
                 i l.p recovered.C.p recovered.C.w others.C.p others.C.w;
             ])
       loads)

let all rng loads =
  permutation_invariance rng loads
  @ time_scaling rng loads
  @ monotonicity rng loads
  @ compose_roundtrip loads

(* ------------------------------------------------------------------ *)
(* Admission-level relations (the churn tier)                          *)

module Admission = Contention.Admission

let estimates ctl =
  List.map
    (fun (name, _, _) -> (name, Admission.estimated_period ctl name))
    (Admission.admitted ctl)

let compare_estimates ~property ~tol a b =
  List.concat_map
    (fun (name, pa) ->
      match List.assoc_opt name b with
      | None ->
          [ violation property "%S present in one population only" name ]
      | Some pb ->
          if close ~tol pa pb then []
          else
            [
              violation property "%s: period %.17g vs %.17g (tol %g)" name pa
                pb tol;
            ])
    a

(* Admitting then withdrawing the same application is the identity on every
   resident's estimate: the withdrawal is the most recent admission, so ⊖
   takes the exact LIFO inverse path. *)
let join_leave_roundtrip ~procs residents extra =
  let ctl = Admission.create ~procs () in
  List.iter
    (fun app -> ignore (Admission.try_admit ctl app Admission.best_effort))
    residents;
  let before = estimates ctl in
  match Admission.try_admit ctl extra Admission.best_effort with
  | Admission.Rejected_candidate _ | Admission.Rejected_victim _ ->
      [ violation "meta-join-leave" "best-effort candidate rejected" ]
  | Admission.Admitted _ ->
      let name = (extra : Contention.Analysis.app).graph.Sdf.Graph.name in
      Admission.withdraw ctl name;
      compare_estimates ~property:"meta-join-leave" ~tol:1e-9 before
        (estimates ctl)
  | exception Invalid_argument msg ->
      [ violation "meta-join-leave" "admit raised: %s" msg ]

(* Reaching the same population through different join/leave histories must
   agree with a fresh controller holding only the survivors.  Non-LIFO ⊖
   leaves an O(p²/4) residue per removal, capped by the drift-triggered
   refold, so the comparison is against [tol] (default: the default refold
   bound) rather than exact. *)
let churn_order_independence ?(tol = 0.05) rng ~procs apps =
  match apps with
  | [] -> []
  | _ ->
      let n = List.length apps in
      let doomed =
        (* At least one app leaves (else the relation is trivial), never
           all of them (an empty survivor set compares nothing). *)
        let k = 1 + Sdfgen.Rng.int rng (max 1 (n - 1)) in
        let arr = Array.init n (fun i -> i) in
        Sdfgen.Rng.shuffle rng arr;
        Array.to_list (Array.sub arr 0 k)
      in
      let churned = Admission.create ~procs () in
      List.iter
        (fun app ->
          ignore (Admission.try_admit churned app Admission.best_effort))
        apps;
      List.iter
        (fun i ->
          let app = List.nth apps i in
          Admission.withdraw churned app.Contention.Analysis.graph.Sdf.Graph.name)
        doomed;
      let fresh = Admission.create ~procs () in
      List.iteri
        (fun i app ->
          if not (List.mem i doomed) then
            ignore (Admission.try_admit fresh app Admission.best_effort))
        apps;
      compare_estimates ~property:"meta-churn-order" ~tol
        (estimates churned) (estimates fresh)

(* A higher confidence can only widen the interval: z is monotone in c, and
   with a fixed seed the quantile variant reads wider order statistics off
   the same sample set. *)
let margin_monotonicity ~procs apps =
  let ctl = Admission.create ~procs () in
  List.iter
    (fun app -> ignore (Admission.try_admit ctl app Admission.best_effort))
    apps;
  match Admission.admitted ctl with
  | [] -> []
  | (name, _, _) :: _ ->
      let confidences = [ 0.5; 0.8; 0.9; 0.95; 0.99 ] in
      List.concat_map
        (fun method_ ->
          let widths =
            List.map
              (fun confidence ->
                let m =
                  Admission.margin_for ctl
                    { Admission.default_margin_spec with confidence; method_ }
                    name
                in
                let acc =
                  if Contention.Margin.covers m m.Contention.Margin.period
                  then []
                  else
                    [
                      violation "meta-margin-monotone"
                        "%s at %g: interval [%g, %g] misses its own period %g"
                        (Contention.Margin.method_to_string method_)
                        confidence m.Contention.Margin.lo
                        m.Contention.Margin.hi m.Contention.Margin.period;
                    ]
                in
                (confidence, Contention.Margin.width m, acc))
              confidences
          in
          let pairs = List.combine (List.tl widths) (List.rev (List.tl (List.rev widths))) in
          List.concat_map (fun (_, _, acc) -> acc) widths
          @ List.concat_map
              (fun ((c2, w2, _), (c1, w1, _)) ->
                if w2 +. 1e-12 >= w1 then []
                else
                  [
                    violation "meta-margin-monotone"
                      "%s: width %.17g at confidence %g below width %.17g at \
                       %g"
                      (Contention.Margin.method_to_string method_)
                      w2 c2 w1 c1;
                  ])
              pairs)
        [ Contention.Margin.Z_score; Contention.Margin.Quantile ]
