type 'a t = { capacity : int; table : (Addr.t, 'a) Hashtbl.t }

let create ~capacity () =
  if capacity <= 0 then invalid_arg "Tbe_table.create: capacity must be positive";
  (* [to_list] sorts, so the table may start small and grow with use. *)
  { capacity; table = Hashtbl.create 16 }

let capacity t = t.capacity
let count t = Hashtbl.length t.table
let is_full t = count t >= t.capacity

let alloc t addr entry =
  if Hashtbl.mem t.table addr then `Busy
  else if is_full t then `Full
  else begin
    Hashtbl.add t.table addr entry;
    `Ok
  end

let find t addr = Hashtbl.find_opt t.table addr
let mem t addr = Hashtbl.mem t.table addr

let update t addr entry =
  if not (Hashtbl.mem t.table addr) then raise Not_found;
  Hashtbl.replace t.table addr entry

let dealloc t addr =
  if not (Hashtbl.mem t.table addr) then raise Not_found;
  Hashtbl.remove t.table addr

let to_list t = Fp.sorted_bindings t.table
