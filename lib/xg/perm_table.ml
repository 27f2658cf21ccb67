type t = { mutable default : Perm.t; pages : (int, Perm.t) Hashtbl.t }

let create ?(default = Perm.Read_write) () = { default; pages = Hashtbl.create 16 }

let set_page t ~page perm = Hashtbl.replace t.pages page perm
let set_block t addr perm = set_page t ~page:(Addr.page_of addr) perm

let perm t addr =
  match Hashtbl.find_opt t.pages (Addr.page_of addr) with
  | Some p -> p
  | None -> t.default

let entries t = Hashtbl.length t.pages

let allows_read t addr = Perm.allows_read (perm t addr)
let allows_write t addr = Perm.allows_write (perm t addr)

let revoke_all t =
  Hashtbl.reset t.pages;
  t.default <- Perm.No_access

type snapshot = { s_default : Perm.t; s_pages : (int * Perm.t) list }

let snapshot t =
  { s_default = t.default; s_pages = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.pages [] }

let restore t { s_default; s_pages } =
  Hashtbl.reset t.pages;
  t.default <- s_default;
  List.iter (fun (page, p) -> Hashtbl.replace t.pages page p) s_pages

let check_fingerprint t buf =
  let pc = function Perm.No_access -> 'n' | Perm.Read_only -> 'r' | Perm.Read_write -> 'w' in
  Buffer.add_string buf "perm[";
  Buffer.add_char buf (pc t.default);
  Fp.sorted_bindings t.pages
  |> List.iter (fun (page, p) ->
         (* explicit entries equal to the default are architectural no-ops *)
         if p <> t.default then begin
           Fp.key buf ';' page;
           Buffer.add_char buf ':';
           Buffer.add_char buf (pc p)
         end);
  Buffer.add_char buf ']'
