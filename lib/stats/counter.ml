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

  (* Interned counters live in [slots] from [intern] time, adopted ones from
     their first touch (until then their slot holds [unborn]); either joins
     [order] only on first touch ([enlisted]), so [to_list] stays
     byte-identical to the string-keyed path: same first-touch order, no
     phantom zero entries for vocabulary that never fired.  Names interned
     one at a time are keyed in [ids]; an adopted vocabulary occupies the
     id block starting at its base and is looked up through its own shared
     index.  The two name-keyed tables are made on first need: a group
     driven only through adopted ids never hashes a name.  [table] indexes
     [order] by name once made.  [slots] and [enlisted] cover ids
     [0, n_ids) from the first touch on: a group whose adopted ids never
     fire allocates neither. *)
  type t = {
    group_name : string;
    mutable table : (string, counter) Hashtbl.t option;
    mutable order : counter array; (* creation order; the first [n_order] are live *)
    mutable n_order : int;
    mutable ids : (string, id) Hashtbl.t option;
    mutable blocks : (vocab * id) list;
    mutable slots : counter array;
    mutable enlisted : Bytes.t; (* '\001' once the id's counter is in [order] *)
    mutable n_ids : int;
  }

  let create group_name =
    {
      group_name;
      table = None;
      order = [||];
      n_order = 0;
      ids = None;
      blocks = [];
      slots = [||];
      enlisted = Bytes.empty;
      n_ids = 0;
    }

  let name g = g.group_name

  (* The slot of every id no counter backs yet.  Shared by all groups and
     never written: it only ever reads as 0. *)
  let unborn = make_counter ""

  let reserve g n =
    let cap = Array.length g.slots in
    if n > cap then begin
      let cap' = max n (max 16 (2 * cap)) in
      let slots' = Array.make cap' unborn in
      let enlisted' = Bytes.make cap' '\000' in
      Array.blit g.slots 0 slots' 0 cap;
      Bytes.blit g.enlisted 0 enlisted' 0 cap;
      g.slots <- slots';
      g.enlisted <- enlisted'
    end

  (* The counter of id [id], created on its first touch when adopted. *)
  let born g id =
    if id >= Array.length g.slots then reserve g g.n_ids;
    let c = g.slots.(id) in
    if c != unborn then c
    else begin
      let v, base =
        List.find (fun (v, base) -> id >= base && id < base + Array.length v.names) g.blocks
      in
      let c = make_counter v.names.(id - base) in
      g.slots.(id) <- c;
      c
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

  let enlisted g id = Bytes.get g.enlisted id <> '\000'

  let enlist g c =
    Option.iter (fun tbl -> Hashtbl.add tbl c.name c) g.table;
    if g.n_order = Array.length g.order then begin
      let order' = Array.make (max 8 (2 * g.n_order)) c in
      Array.blit g.order 0 order' 0 g.n_order;
      g.order <- order'
    end;
    g.order.(g.n_order) <- c;
    g.n_order <- g.n_order + 1

  let find_id g counter_name =
    match Option.bind g.ids (fun ids -> Hashtbl.find_opt ids counter_name) with
    | Some _ as id -> id
    | None ->
        List.find_map
          (fun (v, base) ->
            Option.map (fun i -> base + i) (Hashtbl.find_opt v.index counter_name))
          g.blocks

  let counter g counter_name =
    match Hashtbl.find_opt (table g) counter_name with
    | Some c -> c
    | None -> (
        match find_id g counter_name with
        | Some id ->
            let c = born g id in
            Bytes.set g.enlisted id '\001';
            enlist g c;
            c
        | None ->
            let c = make_counter counter_name in
            enlist g c;
            c)

  let intern g counter_name =
    match find_id g counter_name with
    | Some id -> id
    | None ->
        reserve g (g.n_ids + 1);
        let id = g.n_ids in
        let already = Hashtbl.find_opt (table g) counter_name in
        let c =
          match already with Some c -> c | None -> make_counter counter_name
        in
        g.slots.(id) <- c;
        Bytes.set g.enlisted id (if already <> None then '\001' else '\000');
        g.n_ids <- id + 1;
        let ids =
          match g.ids with
          | Some ids -> ids
          | None ->
              let ids = Hashtbl.create 16 in
              g.ids <- Some ids;
              ids
        in
        Hashtbl.add ids counter_name id;
        id

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

  (* First touch: create an adopted counter and join [to_list]. *)
  let touch g id =
    if id >= Array.length g.slots then reserve g g.n_ids;
    if not (enlisted g id) then begin
      Bytes.set g.enlisted id '\001';
      enlist g (born g id)
    end

  let incr_id g id =
    touch g id;
    let c = g.slots.(id) in
    c.value <- c.value + 1

  let add_id g id n =
    touch g id;
    let c = g.slots.(id) in
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
    done;
    for i = 0 to Array.length g.slots - 1 do
      if g.slots.(i) != unborn then reset g.slots.(i)
    done

  let pp fmt g =
    Format.fprintf fmt "@[<v2>%s:" g.group_name;
    List.iter (fun (n, v) -> Format.fprintf fmt "@,%-40s %10d" n v) (to_list g);
    Format.fprintf fmt "@]"
end
