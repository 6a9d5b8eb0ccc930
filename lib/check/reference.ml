module Analysis = Contention.Analysis
module Compose = Contention.Compose
module Prob = Contention.Prob
module Sympoly = Contention.Sympoly

(* ------------------------------------------------------------------ *)
(* List-based waiting-time evaluators                                    *)

module Wcrt = struct
  let waiting_time loads =
    List.fold_left (fun acc (l : Prob.t) -> acc +. l.tau) 0. loads

  let waiting_time_of_exec_times taus = List.fold_left ( +. ) 0. taus
end

module Exact = struct
  let series_coefficient j =
    (if j mod 2 = 1 then 1. else -1.) /. float_of_int (j + 1)

  let waiting_time loads =
    match loads with
    | [] -> 0.
    | loads ->
        let ps = Array.of_list (List.map (fun (l : Prob.t) -> l.p) loads) in
        let es = Sympoly.all ps in
        let n = Array.length ps in
        (* Guarded removal by index ({!Sympoly.remove}): the plain
           deconvolution cancels catastrophically when one load dominates a
           degree. *)
        let acc = ref 0. in
        List.iteri
          (fun i (l : Prob.t) ->
            let others = Sympoly.remove ~xs:ps ~skip:i es in
            let series = ref 1. in
            for j = 1 to n - 1 do
              series := !series +. (series_coefficient j *. others.(j))
            done;
            acc := !acc +. (Prob.waiting_product l *. !series))
          loads;
        !acc

  let waiting_time_brute_force loads =
    let arr = Array.of_list loads in
    let n = Array.length arr in
    if n > 25 then
      invalid_arg "Check.Reference.Exact.waiting_time_brute_force: too many actors";
    let total = ref 0. in
    for mask = 1 to (1 lsl n) - 1 do
      let prob = ref 1. and mu_sum = ref 0. and size = ref 0 in
      for i = 0 to n - 1 do
        let l = arr.(i) in
        if mask land (1 lsl i) <> 0 then begin
          prob := !prob *. l.Prob.p;
          mu_sum := !mu_sum +. l.Prob.mu;
          incr size
        end
        else prob := !prob *. (1. -. l.Prob.p)
      done;
      let s = float_of_int !size in
      total := !total +. (!prob *. (((2. *. s) -. 1.) /. s) *. !mu_sum)
    done;
    !total
end

module Approx = struct
  let waiting_time ~order loads =
    if order < 2 then invalid_arg "Check.Reference.Approx.waiting_time: order < 2";
    match loads with
    | [] -> 0.
    | loads ->
        let ps = Array.of_list (List.map (fun (l : Prob.t) -> l.p) loads) in
        let n = Array.length ps in
        let max_degree = Int.min (order - 1) (n - 1) in
        let es = Sympoly.up_to (max_degree + 1) ps in
        let acc = ref 0. in
        List.iteri
          (fun i (l : Prob.t) ->
            (* Deconvolve only the degrees the truncation needs; on
               catastrophic cancellation fall back to refolding the other
               loads directly (same guard as {!Sympoly.remove}, truncated). *)
            let others = Array.make (max_degree + 1) 0. in
            Sympoly.deconvolve_into ~es ~xs:ps ~skip:i ~out:others
              ~n:(max_degree + 1);
            if not (Sympoly.deconv_stable ~es ~out:others ~n:(max_degree + 1))
            then
              Sympoly.refold_trunc_into ~xs:ps ~m:n ~skip:i ~k:max_degree
                ~out:others;
            let series = ref 1. in
            for j = 1 to max_degree do
              series := !series +. (Exact.series_coefficient j *. others.(j))
            done;
            acc := !acc +. (Prob.waiting_product l *. !series))
          loads;
        !acc

  let second_order loads =
    (* Closed form of Equation 5: W = sum_i w_i (1 + 1/2 sum_(j<>i) P_j). *)
    let p_total = List.fold_left (fun acc (l : Prob.t) -> acc +. l.p) 0. loads in
    List.fold_left
      (fun acc (l : Prob.t) ->
        acc +. (Prob.waiting_product l *. (1. +. (0.5 *. (p_total -. l.p)))))
      0. loads

  let fourth_order loads = waiting_time ~order:4 loads
end

let waiting_time est others =
  match est with
  | Analysis.Worst_case -> Wcrt.waiting_time others
  | Analysis.Order m -> Approx.waiting_time ~order:m others
  | Analysis.Composability -> Compose.waiting_time others
  | Analysis.Exact -> Exact.waiting_time others

(* ------------------------------------------------------------------ *)
(* The list-based Figure-4 pass                                          *)

type cache = { loads : Prob.t array; expansion : Sdf.Hsdf.t }

let prepare (a : Analysis.app) =
  { loads = Analysis.loads a; expansion = Sdf.Hsdf.expand a.graph }

(* One pass of the Figure 4 algorithm given per-app loads and expansions. *)
let one_pass est (apps : Analysis.app array) (app_loads : Prob.t array array)
    (expansions : Sdf.Hsdf.t array) =
  (* Node occupancy: which (app, actor) pairs share each processor. *)
  let by_node = Hashtbl.create 16 in
  Array.iteri
    (fun ai (a : Analysis.app) ->
      Array.iteri
        (fun actor proc ->
          let existing = Option.value ~default:[] (Hashtbl.find_opt by_node proc) in
          Hashtbl.replace by_node proc ((ai, actor) :: existing))
        a.mapping)
    apps;
  let estimate_one ai (a : Analysis.app) =
    let n = Sdf.Graph.num_actors a.graph in
    let waiting_times =
      Array.init n (fun actor ->
          let proc = a.mapping.(actor) in
          let on_node = Option.value ~default:[] (Hashtbl.find_opt by_node proc) in
          let others =
            List.filter_map
              (fun (aj, actor_j) ->
                if aj = ai && actor_j = actor then None
                else Some app_loads.(aj).(actor_j))
              on_node
          in
          waiting_time est others)
    in
    let response_times =
      Array.init n (fun actor ->
          (Sdf.Graph.actor a.graph actor).exec_time +. waiting_times.(actor))
    in
    let period =
      Sdf.Hsdf.period_of_expansion expansions.(ai) ~exec_times:response_times
    in
    { Analysis.for_app = a; waiting_times; response_times; period }
  in
  Array.mapi estimate_one apps

let estimate_with_loads est pairs =
  let apps = Array.of_list (List.map fst pairs) in
  let loads = Array.of_list (List.map snd pairs) in
  Array.iteri
    (fun i (a : Analysis.app) ->
      if Array.length loads.(i) <> Sdf.Graph.num_actors a.graph then
        invalid_arg "Check.Reference.estimate_with_loads: length mismatch")
    apps;
  Array.to_list
    (one_pass est apps loads
       (Array.map (fun (a : Analysis.app) -> Sdf.Hsdf.expand a.graph) apps))

let estimate ?(iterations = 1) est apps =
  if iterations < 1 then invalid_arg "Check.Reference.estimate: iterations < 1";
  (* Fixed-point refinement: loads re-based on the last pass's periods. *)
  let rec refine pass pairs =
    let results = estimate_with_loads est pairs in
    if pass >= iterations then results
    else
      refine (pass + 1)
        (List.map
           (fun (r : Analysis.estimate) ->
             (r.for_app, Analysis.loads_at_period r.for_app ~period:r.period))
           results)
  in
  refine 1 (List.map (fun a -> (a, Analysis.loads a)) apps)

let estimate_calibrated est measured =
  estimate_with_loads est
    (List.map (fun (a, period) -> (a, Analysis.loads_at_period a ~period)) measured)

let estimate_prepared est pairs =
  let apps = Array.of_list (List.map fst pairs) in
  let caches = Array.of_list (List.map snd pairs) in
  Array.to_list
    (one_pass est apps
       (Array.map (fun c -> c.loads) caches)
       (Array.map (fun c -> c.expansion) caches))

(* ------------------------------------------------------------------ *)
(* The sweep's exact check                                               *)

let tolerance = 1e-9

let check est served reference =
  List.iter2
    (fun (k : Analysis.estimate) (r : Analysis.estimate) ->
      let diverged = ref "" in
      let chk what a b =
        if
          !diverged = ""
          && (not (Float.is_nan a && Float.is_nan b))
          && not (Float.abs (a -. b) <= tolerance)
        then diverged := Printf.sprintf "%s (%.17g vs %.17g)" what a b
      in
      chk "period" k.period r.period;
      Array.iteri
        (fun i w -> chk (Printf.sprintf "waiting_times.(%d)" i) w r.waiting_times.(i))
        k.waiting_times;
      Array.iteri
        (fun i w ->
          chk (Printf.sprintf "response_times.(%d)" i) w r.response_times.(i))
        k.response_times;
      if !diverged <> "" then
        failwith
          (Printf.sprintf
             "Contention.Analysis: kernel/reference divergence on app %S, \
              estimator %s: %s"
             k.for_app.graph.Sdf.Graph.name (Analysis.estimator_name est)
             !diverged))
    served reference

let check_sweep (s : Exp.Sweep.t) =
  let apps = s.workload.Exp.Workload.apps in
  let caches = Array.map Analysis.prepare apps in
  let refs = Array.map prepare apps in
  (* Observations come grouped by use-case, apps ascending. *)
  let rec take u acc = function
    | (o : Exp.Sweep.observation) :: rest when o.usecase = u -> take u (o :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  let rec go = function
    | [] -> ()
    | (o : Exp.Sweep.observation) :: _ as obs ->
        let here, rest = take o.usecase [] obs in
        let indices = List.map (fun (o : Exp.Sweep.observation) -> o.app_index) here in
        List.iter
          (fun est ->
            (* The sweep keeps only periods; the waits and response times
               are the kernel's for the same inputs. *)
            let served =
              List.map2
                (fun (k : Analysis.estimate) (o : Exp.Sweep.observation) ->
                  { k with period = List.assoc est o.estimated_periods })
                (Analysis.estimate_prepared est
                   (List.map (fun i -> (apps.(i), caches.(i))) indices))
                here
            in
            check est served
              (estimate_prepared est (List.map (fun i -> (apps.(i), refs.(i))) indices)))
          s.estimators;
        go rest
  in
  go s.observations
