type op = Load | Store of Data.t

type t = { op : op; addr : Addr.t }

let load addr = { op = Load; addr }
let store addr data = { op = Store data; addr }
let is_store t = match t.op with Store _ -> true | Load -> false

(* "LD 0x<addr>" or "ST 0x<addr>=#<data>". *)
let add_text buf t =
  Buffer.add_string buf (match t.op with Load -> "LD 0x" | Store _ -> "ST 0x");
  Fp.hex buf (Addr.to_int t.addr);
  match t.op with
  | Load -> ()
  | Store d ->
      Buffer.add_string buf "=#";
      Fp.int buf d

let pp = Fp.pp_of add_text

type port = { issue : t -> on_done:(Data.t -> unit) -> bool }
