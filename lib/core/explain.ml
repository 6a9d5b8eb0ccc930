type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

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

let estimator_of_name s =
  match s with
  | "worst-case" -> Ok Analysis.Worst_case
  | "second-order" -> Ok (Analysis.Order 2)
  | "fourth-order" -> Ok (Analysis.Order 4)
  | "composability" -> Ok Analysis.Composability
  | "exact" -> Ok Analysis.Exact
  | s -> (
      match String.index_opt s '-' with
      | Some i when String.sub s 0 i = "order" -> (
          match
            int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1))
          with
          | Some m when m >= 2 -> Ok (Analysis.Order m)
          | _ -> Error (Printf.sprintf "unknown estimator %S" s))
      | _ -> Error (Printf.sprintf "unknown estimator %S" s))

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
  let* est = estimator_of_name t.estimator in
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
(* JSON codec                                                            *)

let int_j i = Num (float_of_int i)

let contender_to_json c =
  Obj
    [
      ("app", Str c.c_app);
      ("actor", int_j c.c_actor);
      ("p", Num c.c_p);
      ("mu", Num c.c_mu);
      ("tau", Num c.c_tau);
    ]

let fold_step_to_json f =
  Obj
    [
      ("app", Str f.f_app);
      ("actor", int_j f.f_actor);
      ("p", Num f.f_p);
      ("w", Num f.f_w);
    ]

let sandwich_to_json s =
  Obj
    [
      ("order", int_j s.s_order);
      ("lower", Num s.s_lower);
      ("upper", Num s.s_upper);
    ]

let actor_to_json a =
  Obj
    ([
       ("actor", int_j a.a_index);
       ("name", Str a.a_name);
       ("proc", int_j a.a_proc);
       ("exec", Num a.a_exec);
       ("p", Num a.a_p);
       ("mu", Num a.a_mu);
       ("contenders", Arr (List.map contender_to_json a.a_contenders));
     ]
    @ (match a.a_fold with
      | [] -> []
      | fold -> [ ("fold", Arr (List.map fold_step_to_json fold)) ])
    @ (match a.a_sandwich with
      | None -> []
      | Some s -> [ ("sandwich", sandwich_to_json s) ])
    @ [ ("wait", Num a.a_wait); ("response", Num a.a_response) ])

let app_to_json x =
  Obj
    ([
       ("app", Str x.x_app);
       ("isolation_period", Num x.x_isolation);
       ("period", Num x.x_period);
       ("contention_factor", Num x.x_factor);
       ("throughput", Num x.x_throughput);
     ]
    @ [ ("actors", Arr (List.map actor_to_json x.x_actors)) ])

let to_json t =
  Obj
    [
      ("estimator", Str t.estimator);
      ("engine", Str t.engine);
      ("usecase", Arr (List.map (fun a -> Str a) t.usecase));
      ("apps", Arr (List.map app_to_json t.apps));
    ]

let member name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None

let get_str = function Str s -> Some s | _ -> None
let get_num = function Num n -> Some n | _ -> None
let get_arr = function Arr xs -> Some xs | _ -> None

let field name conv json =
  match member name json with
  | None -> Error (Printf.sprintf "missing field %S" name)
  | Some v -> (
      match conv v with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "field %S has the wrong type" name))

let get_int v = Option.map int_of_float (get_num v)

let map_result f xs =
  List.fold_right
    (fun x acc ->
      let* acc = acc in
      let* y = f x in
      Ok (y :: acc))
    xs (Ok [])

let contender_of_json j =
  let* c_app = field "app" get_str j in
  let* c_actor = field "actor" get_int j in
  let* c_p = field "p" get_num j in
  let* c_mu = field "mu" get_num j in
  let* c_tau = field "tau" get_num j in
  Ok { c_app; c_actor; c_p; c_mu; c_tau }

let fold_step_of_json j =
  let* f_app = field "app" get_str j in
  let* f_actor = field "actor" get_int j in
  let* f_p = field "p" get_num j in
  let* f_w = field "w" get_num j in
  Ok { f_app; f_actor; f_p; f_w }

let sandwich_of_json j =
  let* s_order = field "order" get_int j in
  let* s_lower = field "lower" get_num j in
  let* s_upper = field "upper" get_num j in
  Ok { s_order; s_lower; s_upper }

let actor_of_json j =
  let* a_index = field "actor" get_int j in
  let* a_name = field "name" get_str j in
  let* a_proc = field "proc" get_int j in
  let* a_exec = field "exec" get_num j in
  let* a_p = field "p" get_num j in
  let* a_mu = field "mu" get_num j in
  let* contenders = field "contenders" get_arr j in
  let* a_contenders = map_result contender_of_json contenders in
  let* a_fold =
    match member "fold" j with
    | None -> Ok []
    | Some v -> (
        match get_arr v with
        | None -> Error "field \"fold\" has the wrong type"
        | Some xs -> map_result fold_step_of_json xs)
  in
  let* a_sandwich =
    match member "sandwich" j with
    | None -> Ok None
    | Some v -> Result.map Option.some (sandwich_of_json v)
  in
  let* a_wait = field "wait" get_num j in
  let* a_response = field "response" get_num j in
  Ok
    {
      a_index;
      a_name;
      a_proc;
      a_exec;
      a_p;
      a_mu;
      a_contenders;
      a_fold;
      a_sandwich;
      a_wait;
      a_response;
    }

let app_of_json j =
  let* x_app = field "app" get_str j in
  let* x_isolation = field "isolation_period" get_num j in
  let* x_period = field "period" get_num j in
  let* x_factor = field "contention_factor" get_num j in
  let* x_throughput = field "throughput" get_num j in
  let* actors = field "actors" get_arr j in
  let* x_actors = map_result actor_of_json actors in
  Ok { x_app; x_isolation; x_period; x_factor; x_throughput; x_actors }

let of_json j =
  let* estimator = field "estimator" get_str j in
  let* engine = field "engine" get_str j in
  let* usecase_json = field "usecase" get_arr j in
  let* usecase =
    map_result
      (fun v ->
        match get_str v with
        | Some s -> Ok s
        | None -> Error "field \"usecase\" has the wrong type")
      usecase_json
  in
  let* apps_json = field "apps" get_arr j in
  let* apps = map_result app_of_json apps_json in
  Ok { estimator; engine; usecase; apps }

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
