type kind = Msg_send | Msg_recv | Transition | Stall | Tbe_alloc | Tbe_free | Note

type event = {
  cycle : int;
  kind : kind;
  controller : string;
  addr : int;
  a : string;
  b : string;
  c : string;
}

let no_addr = -1

let dummy =
  { cycle = 0; kind = Note; controller = ""; addr = no_addr; a = ""; b = ""; c = "" }

type t = { buf : event array; mutable total : int }

let create ?(capacity = 1024) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  { buf = Array.make capacity dummy; total = 0 }

let recorded t = t.total
let length t = min t.total (Array.length t.buf)
let dropped t = max 0 (t.total - Array.length t.buf)

let to_list t =
  let cap = Array.length t.buf in
  let n = length t in
  let first = if t.total <= cap then 0 else t.total mod cap in
  List.init n (fun i -> t.buf.((first + i) mod cap))

let matches ~addr ev = ev.addr = addr || (ev.kind = Note && ev.addr = no_addr)

let events_for t ~addr = List.filter (matches ~addr) (to_list t)

(* ---- emission ---- *)

(* The single funnel every event goes through. *)
let emit t cycle kind controller addr a b c =
  t.buf.(t.total mod Array.length t.buf) <- { cycle; kind; controller; addr; a; b; c };
  t.total <- t.total + 1

let send t ~cycle ~net ~src ~dst ~addr ~text = emit t cycle Msg_send net addr src dst text
let recv t ~cycle ~net ~src ~dst ~addr ~text = emit t cycle Msg_recv net addr src dst text

let transition t ~cycle ~controller ~addr ~state ~event ?(next = "") () =
  emit t cycle Transition controller addr state event next

let stall t ~cycle ~controller ~addr ~why = emit t cycle Stall controller addr why "" ""
let tbe_alloc t ~cycle ~controller ~addr = emit t cycle Tbe_alloc controller addr "" "" ""
let tbe_free t ~cycle ~controller ~addr = emit t cycle Tbe_free controller addr "" "" ""
let note t ~cycle ~controller ?(addr = no_addr) ~text () =
  emit t cycle Note controller addr text "" ""

(* ---- rendering ---- *)

let addr_text addr = if addr = no_addr then "-" else Printf.sprintf "0x%x" addr

let detail ev =
  match ev.kind with
  | Msg_send -> Printf.sprintf "send %s -> %s: %s" ev.a ev.b ev.c
  | Msg_recv -> Printf.sprintf "recv %s -> %s: %s" ev.a ev.b ev.c
  | Transition ->
      if ev.c = "" then Printf.sprintf "[%s] %s" ev.a ev.b
      else Printf.sprintf "[%s] %s -> [%s]" ev.a ev.b ev.c
  | Stall -> Printf.sprintf "stall: %s" ev.a
  | Tbe_alloc -> "tbe alloc"
  | Tbe_free -> "tbe free"
  | Note -> ev.a

let format_event ev =
  Printf.sprintf "@%7d %-16s %-5s %s" ev.cycle ev.controller (addr_text ev.addr) (detail ev)

let pp_event fmt ev = Format.pp_print_string fmt (format_event ev)

let dropped_header t =
  let d = dropped t in
  if d = 0 then []
  else [ Printf.sprintf "(%d event%s dropped — ring wrapped)" d (if d = 1 then "" else "s") ]

let dump ?addr ?last t =
  let events = to_list t in
  let events =
    match addr with None -> events | Some a -> List.filter (matches ~addr:a) events
  in
  let events =
    match last with
    | None -> events
    | Some n ->
        (* Single drop pass: compute the length once, then drop the prefix. *)
        let rec drop k l = if k <= 0 then l else match l with [] -> [] | _ :: tl -> drop (k - 1) tl in
        drop (List.length events - n) events
  in
  String.concat "\n" (dropped_header t @ List.map format_event events)
