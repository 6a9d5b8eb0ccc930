type contender = {
  c_app : string;
  c_actor : int;
  c_p : float;
  c_mu : float;
  c_tau : float;
}

type fold_step = { f_app : string; f_actor : int; f_p : float; f_w : float }
type sandwich = { s_order : int; s_lower : float; s_upper : float }

type actor = {
  a_index : int;
  a_name : string;
  a_proc : int;
  a_exec : float;
  a_p : float;
  a_mu : float;
  a_contenders : contender list;
  a_fold : fold_step list;
  a_sandwich : sandwich option;
  a_wait : float;
  a_response : float;
}

type app = {
  x_app : string;
  x_isolation : float;
  x_period : float;
  x_factor : float;
  x_throughput : float;
  x_actors : actor list;
}

type t = {
  estimator : string;
  engine : string;
  usecase : string list;
  apps : app list;
}

(* The one period engine: the records keep the field so a reader can tell
   which search produced the periods. *)
let engine = "mcm"

(* ------------------------------------------------------------------ *)
(* Computation: the Figure-4 pass with its working kept                  *)

(* The per-processor occupancy lists are built by prepending during an
   ascending (app, actor) scan, so each list runs descending — the member
   order of the kernel pass's processor groups ({!Analysis.estimate}), which
   fixes the order the estimator folds the contenders in. *)
let occupancy (apps : Analysis.app array) =
  let by_node = Hashtbl.create 16 in
  Array.iteri
    (fun ai (a : Analysis.app) ->
      Array.iteri
        (fun actor proc ->
          let existing =
            Option.value ~default:[] (Hashtbl.find_opt by_node proc)
          in
          Hashtbl.replace by_node proc ((ai, actor) :: existing))
        a.mapping)
    apps;
  by_node

(* The wait [est] inflicts on an actor from its recorded contenders, on the
   kernel evaluator: the contenders, in fold order, followed by the actor
   itself form one processor group.  The evaluator folds the wait of a
   member over the others in group order, so the wait of that last member
   folds exactly the contenders, as the use-case's own group does; the
   actor's own load never enters its wait and is left zero. *)
let kernel_wait ker est contenders =
  let n = List.length contenders + 1 in
  let p = Array.make n 0. and mu = Array.make n 0. and tau = Array.make n 0. in
  List.iteri
    (fun i c ->
      p.(i) <- c.c_p;
      mu.(i) <- c.c_mu;
      tau.(i) <- c.c_tau)
    contenders;
  let out = Array.make n 0. in
  Kernel.reserve_group ker n;
  Analysis.waits_into ker est ~p ~mu ~tau ~off:0 ~n ~out;
  out.(n - 1)

(* The period of [graph] under per-actor response times, on the kernel's
   period search. *)
let kernel_period ker graph responses =
  let out = [| 0. |] in
  Kernel.period_into ker (Analysis.kernel_graph graph) ~exec:responses
    ~exec_off:0 ~out ~out_idx:0;
  out.(0)

let fold_lineage names others =
  let _, rev =
    List.fold_left
      (fun (acc, steps) ((aj, actor_j), load) ->
        let acc = Compose.combine acc (Compose.of_load load) in
        ( acc,
          {
            f_app = names.(aj);
            f_actor = actor_j;
            f_p = acc.Compose.p;
            f_w = acc.Compose.w;
          }
          :: steps ))
      (Compose.empty, []) others
  in
  List.rev rev

(* Even truncations of Eq. 4 over-estimate, odd ones under-estimate
   (Section 4.1), so orders m and m+1 bracket the exact value. *)
let sandwich_for ker est contenders wait =
  match est with
  | Analysis.Order m ->
      let other = kernel_wait ker (Analysis.Order (m + 1)) contenders in
      if m mod 2 = 0 then Some { s_order = m; s_lower = other; s_upper = wait }
      else Some { s_order = m; s_lower = wait; s_upper = other }
  | _ -> None

let compute est (apps : Analysis.app list) =
  let ker = Kernel.scratch () in
  let apps = Array.of_list apps in
  let app_loads = Array.map Analysis.loads apps in
  let names =
    Array.map (fun (a : Analysis.app) -> a.graph.Sdf.Graph.name) apps
  in
  let by_node = occupancy apps in
  let explain_app ai (a : Analysis.app) =
    let n = Sdf.Graph.num_actors a.graph in
    let actors =
      List.init n (fun actor ->
          let proc = a.mapping.(actor) in
          let on_node =
            Option.value ~default:[] (Hashtbl.find_opt by_node proc)
          in
          let others =
            List.filter_map
              (fun (aj, actor_j) ->
                if aj = ai && actor_j = actor then None
                else Some ((aj, actor_j), app_loads.(aj).(actor_j)))
              on_node
          in
          let contenders =
            List.map
              (fun ((aj, actor_j), (l : Prob.t)) ->
                {
                  c_app = names.(aj);
                  c_actor = actor_j;
                  c_p = l.p;
                  c_mu = l.mu;
                  c_tau = l.tau;
                })
              others
          in
          let wait = kernel_wait ker est contenders in
          let own = app_loads.(ai).(actor) in
          let exec = (Sdf.Graph.actor a.graph actor).exec_time in
          {
            a_index = actor;
            a_name = (Sdf.Graph.actor a.graph actor).name;
            a_proc = proc;
            a_exec = exec;
            a_p = own.Prob.p;
            a_mu = own.Prob.mu;
            a_contenders = contenders;
            a_fold =
              (match est with
              | Analysis.Composability -> fold_lineage names others
              | _ -> []);
            a_sandwich = sandwich_for ker est contenders wait;
            a_wait = wait;
            a_response = exec +. wait;
          })
    in
    let period =
      kernel_period ker a.graph
        (Array.of_list (List.map (fun x -> x.a_response) actors))
    in
    {
      x_app = names.(ai);
      x_isolation = a.isolation_period;
      x_period = period;
      x_factor = period /. a.isolation_period;
      x_throughput = 1. /. period;
      x_actors = actors;
    }
  in
  {
    estimator = Analysis.estimator_name est;
    engine;
    usecase = Array.to_list names;
    apps = Array.to_list (Array.mapi explain_app apps);
  }

(* ------------------------------------------------------------------ *)
(* Verification: reproduce the estimate from the record                  *)

let same_float a b =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let ( let* ) = Result.bind

let verify (t : t) (apps : Analysis.app list) =
  let* est =
    (* Records carry the canonical name only: "o2" is not one. *)
    match Analysis.estimator_of_string t.estimator with
    | Ok e when String.equal (Analysis.estimator_name e) t.estimator -> Ok e
    | _ -> Error (Printf.sprintf "unknown estimator %S" t.estimator)
  in
  let* () =
    if String.equal t.engine engine then Ok ()
    else Error (Printf.sprintf "unknown period engine %S" t.engine)
  in
  let ker = Kernel.scratch () in
  let* () =
    if List.length apps = List.length t.apps then Ok ()
    else
      Error
        (Printf.sprintf "record has %d applications, use-case has %d"
           (List.length t.apps) (List.length apps))
  in
  let check what ~expect ~got =
    if same_float expect got then Ok ()
    else
      Error
        (Printf.sprintf "%s: record has %.17g, reproduction gives %.17g" what
           expect got)
  in
  List.fold_left
    (fun acc ((x : app), (a : Analysis.app)) ->
      let* () = acc in
      let name = a.graph.Sdf.Graph.name in
      let* () =
        if String.equal x.x_app name then Ok ()
        else
          Error
            (Printf.sprintf "record explains %S, use-case has %S" x.x_app name)
      in
      let* () =
        check (name ^ ": isolation period") ~expect:x.x_isolation
          ~got:a.isolation_period
      in
      let n = Sdf.Graph.num_actors a.graph in
      let* () =
        if List.length x.x_actors = n then Ok ()
        else
          Error
            (Printf.sprintf "%s: record has %d actors, graph has %d" name
               (List.length x.x_actors) n)
      in
      let responses = Array.make n 0. in
      let* () =
        List.fold_left
          (fun acc (ax : actor) ->
            let* () = acc in
            let wait = kernel_wait ker est ax.a_contenders in
            let where =
              Printf.sprintf "%s actor %d (%s)" name ax.a_index ax.a_name
            in
            let* () =
              check (where ^ " waiting time") ~expect:ax.a_wait ~got:wait
            in
            let response = ax.a_exec +. wait in
            let* () =
              check (where ^ " response time") ~expect:ax.a_response
                ~got:response
            in
            let* () =
              match (ax.a_sandwich, sandwich_for ker est ax.a_contenders wait) with
              | None, None -> Ok ()
              | Some s, Some r when s.s_order = r.s_order ->
                  let* () =
                    check (where ^ " sandwich lower") ~expect:s.s_lower ~got:r.s_lower
                  in
                  check (where ^ " sandwich upper") ~expect:s.s_upper ~got:r.s_upper
              | _ -> Error (where ^ ": sandwich does not match the estimator")
            in
            if ax.a_index < 0 || ax.a_index >= n then
              Error (Printf.sprintf "%s: actor index out of range" where)
            else begin
              responses.(ax.a_index) <- response;
              Ok ()
            end)
          (Ok ()) x.x_actors
      in
      let period = kernel_period ker a.graph responses in
      let* () = check (name ^ ": period") ~expect:x.x_period ~got:period in
      let* () =
        check (name ^ ": throughput") ~expect:x.x_throughput ~got:(1. /. period)
      in
      check
        (name ^ ": contention factor")
        ~expect:x.x_factor
        ~got:(period /. x.x_isolation))
    (Ok ())
    (List.combine t.apps apps)

(* ------------------------------------------------------------------ *)
(* Rendering                                                             *)

let num = Printf.sprintf "%.6g"

let contenders_cell = function
  | [] -> "-"
  | cs ->
      String.concat "+"
        (List.map (fun c -> Printf.sprintf "%s/%d" c.c_app c.c_actor) cs)

let render t =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "use-case {%s}  estimator %s  engine %s\n"
    (String.concat "," t.usecase)
    t.estimator t.engine;
  List.iter
    (fun x ->
      Printf.bprintf buf
        "\napplication %s: isolation %s, period %s, contention factor %s, \
         throughput %s\n"
        x.x_app (num x.x_isolation) (num x.x_period) (num x.x_factor)
        (num x.x_throughput);
      let rows =
        List.map
          (fun a ->
            [
              Printf.sprintf "%d %s" a.a_index a.a_name;
              string_of_int a.a_proc;
              num a.a_exec;
              num a.a_p;
              num a.a_mu;
              num a.a_wait;
              num a.a_response;
              (match a.a_sandwich with
              | None -> "-"
              | Some s -> num (s.s_upper -. s.s_lower));
              contenders_cell a.a_contenders;
            ])
          x.x_actors
      in
      Buffer.add_string buf
        (Repro_stats.Table.render
           ~header:
             [
               "Actor"; "Proc"; "Exec"; "P"; "Mu"; "Wait"; "Response";
               "Err bound"; "Contenders";
             ]
           rows);
      List.iter
        (fun a ->
          match a.a_fold with
          | [] -> ()
          | fold ->
              Printf.bprintf buf "  fold %d %s:" a.a_index a.a_name;
              List.iter
                (fun f ->
                  Printf.bprintf buf " + %s/%d -> (P=%s, W=%s)" f.f_app
                    f.f_actor (num f.f_p) (num f.f_w))
                fold;
              Buffer.add_char buf '\n')
        x.x_actors)
    t.apps;
  Buffer.contents buf
