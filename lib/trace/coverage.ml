module Group = Xguard_stats.Counter.Group
module Table = Xguard_stats.Table

type space = {
  name : string;
  states : string list;
  events : string list;
  possible : string -> string -> bool;
  vocab : Group.vocab;
  n_states : int;
  n_events : int;
}

let space ~name ~states ~events ?(possible = fun _ _ -> true) () =
  let keys = List.concat_map (fun s -> List.map (fun e -> s ^ "." ^ e) events) states in
  {
    name;
    states;
    events;
    possible;
    vocab = Group.vocab (Array.of_list keys);
    n_states = List.length states;
    n_events = List.length events;
  }

type matrix = {
  group : Group.t;
  ids : Group.id array; (* row-major: state index * n_events + event index *)
  n_states : int;
  n_events : int;
}

let intern_matrix space group =
  {
    group;
    ids = Group.adopt group space.vocab;
    n_states = space.n_states;
    n_events = space.n_events;
  }

let hit m ~state ~event = Group.incr_id m.group m.ids.((state * m.n_events) + event)

type report = {
  about : space;
  count : string -> string -> int;
  covered : int;
  total : int;
  uncovered : (string * string) list;
  stray : (string * int) list;
}

let split_key key =
  match String.index_opt key '.' with
  | None -> None
  | Some i -> Some (String.sub key 0 i, String.sub key (i + 1) (String.length key - i - 1))

let analyze space groups =
  let hits : (string * string, int) Hashtbl.t = Hashtbl.create 64 in
  let stray : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let in_space state event =
    List.mem state space.states && List.mem event space.events
    && space.possible state event
  in
  List.iter
    (fun g ->
      List.iter
        (fun (key, n) ->
          if n > 0 then
            match split_key key with
            | Some (state, event) when in_space state event ->
                let prev = Option.value ~default:0 (Hashtbl.find_opt hits (state, event)) in
                Hashtbl.replace hits (state, event) (prev + n)
            | Some _ | None ->
                let prev = Option.value ~default:0 (Hashtbl.find_opt stray key) in
                Hashtbl.replace stray key (prev + n))
        (Group.to_list g))
    groups;
  let count state event =
    Option.value ~default:0 (Hashtbl.find_opt hits (state, event))
  in
  let covered = ref 0 and total = ref 0 and uncovered = ref [] in
  List.iter
    (fun state ->
      List.iter
        (fun event ->
          if space.possible state event then begin
            incr total;
            if count state event > 0 then incr covered
            else uncovered := (state, event) :: !uncovered
          end)
        space.events)
    space.states;
  let stray =
    List.sort compare (Hashtbl.fold (fun k n acc -> (k, n) :: acc) stray [])
  in
  {
    about = space;
    count;
    covered = !covered;
    total = !total;
    uncovered = List.rev !uncovered;
    stray;
  }

let merge a b =
  if
    a.about.name <> b.about.name
    || a.about.states <> b.about.states
    || a.about.events <> b.about.events
  then
    invalid_arg
      (Printf.sprintf "Coverage.merge: reports describe different spaces (%s vs %s)"
         a.about.name b.about.name);
  let space = a.about in
  let count state event = a.count state event + b.count state event in
  let covered = ref 0 and total = ref 0 and uncovered = ref [] in
  List.iter
    (fun state ->
      List.iter
        (fun event ->
          if space.possible state event then begin
            incr total;
            if count state event > 0 then incr covered
            else uncovered := (state, event) :: !uncovered
          end)
        space.events)
    space.states;
  let stray_tbl : (string, int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (k, n) ->
      let prev = Option.value ~default:0 (Hashtbl.find_opt stray_tbl k) in
      Hashtbl.replace stray_tbl k (prev + n))
    (a.stray @ b.stray);
  let stray =
    List.sort compare (Hashtbl.fold (fun k n acc -> (k, n) :: acc) stray_tbl [])
  in
  {
    about = space;
    count;
    covered = !covered;
    total = !total;
    uncovered = List.rev !uncovered;
    stray;
  }

let fraction r = if r.total = 0 then 1.0 else float_of_int r.covered /. float_of_int r.total

let to_table r =
  let title =
    Printf.sprintf "%s transition coverage: %d/%d possible (state x event) pairs (%s)"
      r.about.name r.covered r.total
      (Table.cell_pct (fraction r))
  in
  let table = Table.create ~title ~columns:("state" :: r.about.events) in
  List.iter
    (fun state ->
      let cells =
        List.map
          (fun event ->
            if not (r.about.possible state event) then "."
            else match r.count state event with 0 -> "-" | n -> string_of_int n)
          r.about.events
      in
      Table.add_row table (state :: cells))
    r.about.states;
  table

let pp_uncovered fmt r =
  List.iter (fun (s, e) -> Format.fprintf fmt "%s.%s@." s e) r.uncovered

let pp fmt r =
  Table.pp fmt (to_table r);
  if r.uncovered <> [] then begin
    Format.fprintf fmt "uncovered:@.";
    pp_uncovered fmt r
  end;
  if r.stray <> [] then begin
    Format.fprintf fmt "stray keys (outside the registered space):@.";
    List.iter (fun (k, n) -> Format.fprintf fmt "  %-40s %d@." k n) r.stray
  end

let to_string r = Format.asprintf "%a" pp r
