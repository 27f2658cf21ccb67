type t = { name : string; mutable value : int }

let create name = { name; value = 0 }
let name t = t.name
let incr t = t.value <- t.value + 1
let add t n = t.value <- t.value + n
let get t = t.value
let reset t = t.value <- 0

let make_counter = create
let incr_counter = incr
let add_counter = add

module Group = struct
  type counter = t
  type id = int

  (* A vocabulary is built once and never mutated afterwards, so any number
     of groups (on any number of domains) may read it concurrently.  [names]
     holds the distinct names in first-occurrence order, [index] inverts it,
     and [at] maps each position of the list it was built from to its name's
     index (equal names share one). *)
  type vocab = { names : string array; index : (string, int) Hashtbl.t; at : int array }

  let vocab given =
    let index = Hashtbl.create (Array.length given) in
    let distinct = ref [] in
    let at =
      Array.map
        (fun name ->
          match Hashtbl.find_opt index name with
          | Some i -> i
          | None ->
              let i = Hashtbl.length index in
              Hashtbl.add index name i;
              distinct := name :: !distinct;
              i)
        given
    in
    { names = Array.of_list (List.rev !distinct); index; at }

  (* An adopted vocabulary occupies the id block starting at its base and is
     looked up through its own shared index.  An id's counter is made on its
     first touch, when it also joins [order]; until then its slot holds
     [unborn].  So [to_list] stays byte-identical to the string-keyed path:
     same first-touch order, no phantom zero entries for vocabulary that
     never fired.  [table] indexes [order] by name and is made on first
     need: a group driven only through adopted ids never hashes a name.
     [slots] covers ids [0, n_ids) from the first touch on: a group whose
     adopted ids never fire allocates none. *)
  type t = {
    group_name : string;
    mutable table : (string, counter) Hashtbl.t option;
    mutable order : counter array; (* creation order; the first [n_order] are live *)
    mutable n_order : int;
    mutable blocks : (vocab * id) list;
    mutable slots : counter array;
    mutable n_ids : int;
  }

  let create group_name =
    { group_name; table = None; order = [||]; n_order = 0; blocks = []; slots = [||]; n_ids = 0 }

  let name g = g.group_name

  (* The slot of every id no counter backs yet.  Shared by all groups and
     never written: it only ever reads as 0. *)
  let unborn = make_counter ""

  let reserve g =
    let cap = Array.length g.slots in
    if g.n_ids > cap then begin
      let slots' = Array.make (max g.n_ids (max 16 (2 * cap))) unborn in
      Array.blit g.slots 0 slots' 0 cap;
      g.slots <- slots'
    end

  let table g =
    match g.table with
    | Some tbl -> tbl
    | None ->
        let tbl = Hashtbl.create 16 in
        for i = 0 to g.n_order - 1 do
          Hashtbl.add tbl g.order.(i).name g.order.(i)
        done;
        g.table <- Some tbl;
        tbl

  let enlist g c =
    Option.iter (fun tbl -> Hashtbl.add tbl c.name c) g.table;
    if g.n_order = Array.length g.order then begin
      let order' = Array.make (max 8 (2 * g.n_order)) c in
      Array.blit g.order 0 order' 0 g.n_order;
      g.order <- order'
    end;
    g.order.(g.n_order) <- c;
    g.n_order <- g.n_order + 1

  (* First touch of id [id]: make its counter and join [to_list]. *)
  let born g id =
    reserve g;
    let v, base =
      List.find (fun (v, base) -> id >= base && id < base + Array.length v.names) g.blocks
    in
    let c = make_counter v.names.(id - base) in
    g.slots.(id) <- c;
    enlist g c;
    c

  let find_id g counter_name =
    List.find_map
      (fun (v, base) -> Option.map (fun i -> base + i) (Hashtbl.find_opt v.index counter_name))
      g.blocks

  let counter g counter_name =
    match Hashtbl.find_opt (table g) counter_name with
    | Some c -> c
    | None -> (
        match find_id g counter_name with
        | Some id -> born g id
        | None ->
            let c = make_counter counter_name in
            enlist g c;
            c)

  let adopt g v =
    (* A group that has never named a counter cannot clash, so only a group
       already in use pays a lookup per name. *)
    if g.n_ids > 0 || g.n_order > 0 then
      Array.iter
        (fun n ->
          if Hashtbl.mem (table g) n || find_id g n <> None then
            invalid_arg
              (Printf.sprintf "Counter.Group.adopt: %S is already a counter of %s" n
                 g.group_name))
        v.names;
    let base = g.n_ids in
    g.n_ids <- base + Array.length v.names;
    g.blocks <- (v, base) :: g.blocks;
    (* A fresh group's block starts at id 0, so its ids are the vocabulary's
       own positions: share them instead of copying. *)
    if base = 0 then v.at else Array.map (fun i -> base + i) v.at

  let touch g id =
    if id < Array.length g.slots && g.slots.(id) != unborn then g.slots.(id) else born g id

  let incr_id g id =
    let c = touch g id in
    c.value <- c.value + 1

  let add_id g id n =
    let c = touch g id in
    c.value <- c.value + n

  let get_id g id = if id < Array.length g.slots then g.slots.(id).value else 0
  let incr g counter_name = incr_counter (counter g counter_name)
  let add g counter_name n = add_counter (counter g counter_name) n

  let get g counter_name =
    match Hashtbl.find_opt (table g) counter_name with
    | Some c -> c.value
    | None -> 0

  let to_list g = List.init g.n_order (fun i -> (g.order.(i).name, g.order.(i).value))
  let count g = g.n_order

  let nth g i =
    if i < 0 || i >= g.n_order then invalid_arg "Counter.Group.nth";
    g.order.(i)

  let reset_all g =
    for i = 0 to g.n_order - 1 do
      reset g.order.(i)
    done

  let pp fmt g =
    Format.fprintf fmt "@[<v2>%s:" g.group_name;
    List.iter (fun (n, v) -> Format.fprintf fmt "@,%-40s %10d" n v) (to_list g);
    Format.fprintf fmt "@]"
end
