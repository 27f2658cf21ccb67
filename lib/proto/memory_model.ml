type t = { table : (Addr.t, Data.t) Hashtbl.t }

(* Every iteration ([touched]) is sorted, so the initial size is free to
   fit the tiny systems the model checker rebuilds once per path. *)
let create () = { table = Hashtbl.create 16 }

let read t addr =
  match Hashtbl.find_opt t.table addr with
  | Some d -> d
  | None -> Data.initial addr

let write t addr data = Hashtbl.replace t.table addr data

let touched t = Fp.sorted_bindings t.table
