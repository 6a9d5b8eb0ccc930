type actor = { id : int; name : string; exec_time : float }

type channel = {
  src : int;
  dst : int;
  produce : int;
  consume : int;
  tokens : int;
}

type t = { name : string; actors : actor array; channels : channel array }

let num_actors g = Array.length g.actors
let num_channels g = Array.length g.channels

let check_actor_id g id =
  if id < 0 || id >= num_actors g then
    invalid_arg (Printf.sprintf "Sdf.Graph: actor id %d out of range in %S" id g.name)

let create ~name ~actors ~channels =
  let mk_actor id (aname, exec_time) =
    if not (exec_time > 0. && Float.is_finite exec_time) then
      invalid_arg
        (Printf.sprintf "Sdf.Graph.create: actor %S has non-positive execution time %g"
           aname exec_time);
    { id; name = aname; exec_time }
  in
  let g = { name; actors = Array.mapi mk_actor actors; channels = [||] } in
  let mk_channel (src, dst, produce, consume, tokens) =
    check_actor_id g src;
    check_actor_id g dst;
    if produce < 1 || consume < 1 then
      invalid_arg
        (Printf.sprintf "Sdf.Graph.create: channel %d->%d has non-positive rate" src dst);
    if tokens < 0 then
      invalid_arg
        (Printf.sprintf "Sdf.Graph.create: channel %d->%d has negative tokens" src dst);
    { src; dst; produce; consume; tokens }
  in
  { g with channels = Array.map mk_channel channels }

let actor g id =
  check_actor_id g id;
  g.actors.(id)

let exec_times g = Array.map (fun a -> a.exec_time) g.actors

let with_exec_times g times =
  if Array.length times <> num_actors g then
    invalid_arg "Sdf.Graph.with_exec_times: length mismatch";
  let set a =
    let t = times.(a.id) in
    if not (t > 0. && Float.is_finite t) then
      invalid_arg
        (Printf.sprintf "Sdf.Graph.with_exec_times: non-positive time %g for %S" t a.name);
    { a with exec_time = t }
  in
  { g with actors = Array.map set g.actors }

let successors g id =
  check_actor_id g id;
  Array.fold_right
    (fun c acc -> if c.src = id then (c.dst, c) :: acc else acc)
    g.channels []

let predecessors g id =
  check_actor_id g id;
  Array.fold_right
    (fun c acc -> if c.dst = id then (c.src, c) :: acc else acc)
    g.channels []

let in_channels g id = List.map snd (predecessors g id)
let out_channels g id = List.map snd (successors g id)

(* Generic reachability used by both connectivity checks. *)
let reachable_from g ~undirected start =
  let n = num_actors g in
  let seen = Array.make n false in
  let rec visit id =
    if not seen.(id) then begin
      seen.(id) <- true;
      Array.iter
        (fun c ->
          if c.src = id then visit c.dst;
          if undirected && c.dst = id then visit c.src)
        g.channels
    end
  in
  if n > 0 then visit start;
  seen

let is_connected g =
  let n = num_actors g in
  n = 0 || Array.for_all Fun.id (reachable_from g ~undirected:true 0)

let is_strongly_connected g =
  let n = num_actors g in
  if n = 0 then true
  else
    let forward = reachable_from g ~undirected:false 0 in
    if not (Array.for_all Fun.id forward) then false
    else
      (* Reverse reachability: walk channels backwards. *)
      let seen = Array.make n false in
      let rec visit id =
        if not seen.(id) then begin
          seen.(id) <- true;
          Array.iter (fun c -> if c.dst = id then visit c.src) g.channels
        end
      in
      visit 0;
      Array.for_all Fun.id seen

let find_actor g name =
  match Array.find_opt (fun (a : actor) -> a.name = name) g.actors with
  | Some a -> a
  | None -> raise Not_found

let pp ppf g =
  Format.fprintf ppf "@[<v>graph %S@," g.name;
  Array.iter
    (fun a -> Format.fprintf ppf "  actor %d %S tau=%g@," a.id a.name a.exec_time)
    g.actors;
  Array.iter
    (fun c ->
      Format.fprintf ppf "  channel %d -> %d (prod=%d cons=%d tokens=%d)@," c.src c.dst
        c.produce c.consume c.tokens)
    g.channels;
  Format.fprintf ppf "@]"

let equal_structure a b =
  a.actors = b.actors && a.channels = b.channels
