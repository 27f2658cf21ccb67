(* [cached_page] is the page [perm] last looked up and [cached_perm] its
   permission; -1 (no page) after any mutation, so a write is seen by the
   very next read. *)
type t = {
  mutable default : Perm.t;
  pages : Perm.t Int_table.t;
  mutable cached_page : int;
  mutable cached_perm : Perm.t;
}

let create ?(default = Perm.Read_write) () =
  { default; pages = Int_table.create 16; cached_page = -1; cached_perm = default }

let invalidate t = t.cached_page <- -1

let set_page t ~page perm =
  Int_table.replace t.pages page perm;
  invalidate t

let set_block t addr perm = set_page t ~page:(Addr.page_of addr) perm

let perm t addr =
  let page = Addr.page_of addr in
  if page = t.cached_page then t.cached_perm
  else begin
    let p = match Int_table.find_opt t.pages page with Some p -> p | None -> t.default in
    t.cached_page <- page;
    t.cached_perm <- p;
    p
  end

let entries t = Int_table.length t.pages

let allows_read t addr = Perm.allows_read (perm t addr)
let allows_write t addr = Perm.allows_write (perm t addr)

let revoke_all t =
  Int_table.reset t.pages;
  t.default <- Perm.No_access;
  invalidate t

type snapshot = { s_default : Perm.t; s_pages : (int * Perm.t) list }

let snapshot t =
  { s_default = t.default; s_pages = Int_table.fold (fun k v acc -> (k, v) :: acc) t.pages [] }

let restore t { s_default; s_pages } =
  Int_table.reset t.pages;
  t.default <- s_default;
  List.iter (fun (page, p) -> Int_table.replace t.pages page p) s_pages;
  invalidate t

let check_fingerprint t buf =
  let pc = function Perm.No_access -> 'n' | Perm.Read_only -> 'r' | Perm.Read_write -> 'w' in
  Buffer.add_string buf "perm[";
  Buffer.add_char buf (pc t.default);
  Int_table.sorted_bindings t.pages
  |> List.iter (fun (page, p) ->
         (* explicit entries equal to the default are architectural no-ops *)
         if p <> t.default then begin
           Fp.key buf ';' page;
           Buffer.add_char buf ':';
           Buffer.add_char buf (pc p)
         end);
  Buffer.add_char buf ']'
