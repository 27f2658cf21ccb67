type t = { table : Data.t Int_table.t }

(* Every iteration ([touched]) is sorted, so the initial size is free to
   fit the tiny systems the model checker rebuilds once per path. *)
let create () = { table = Int_table.create 16 }

let read t addr =
  match Int_table.find_opt t.table addr with
  | Some d -> d
  | None -> Data.initial addr

let write t addr data = Int_table.replace t.table addr data

let touched t = Int_table.sorted_bindings t.table
