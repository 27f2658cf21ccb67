type 'a t = { capacity : int; table : 'a Int_table.t }

let create ~capacity () =
  if capacity <= 0 then invalid_arg "Tbe_table.create: capacity must be positive";
  (* [to_list] sorts, so the table may start small and grow with use. *)
  { capacity; table = Int_table.create 16 }

let capacity t = t.capacity
let count t = Int_table.length t.table
let is_full t = count t >= t.capacity

let alloc t addr entry =
  if Int_table.mem t.table addr then `Busy
  else if is_full t then `Full
  else begin
    Int_table.replace t.table addr entry;
    `Ok
  end

let find t addr = Int_table.find_opt t.table addr
let mem t addr = Int_table.mem t.table addr

let update t addr entry =
  if not (Int_table.mem t.table addr) then raise Not_found;
  Int_table.replace t.table addr entry

let dealloc t addr =
  if not (Int_table.mem t.table addr) then raise Not_found;
  Int_table.remove t.table addr

let to_list t = Int_table.sorted_bindings t.table
