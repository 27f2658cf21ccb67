let rec digits buf n =
  if n >= 10 then digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let int buf n =
  if n >= 0 then digits buf n
  else if n = min_int then Buffer.add_string buf (string_of_int n)
  else begin
    Buffer.add_char buf '-';
    digits buf (-n)
  end

let hex_digits = "0123456789abcdef"

let rec hex buf n =
  let high = n lsr 4 in
  if high <> 0 then hex buf high;
  Buffer.add_char buf (String.unsafe_get hex_digits (n land 15))

let bool buf b = Buffer.add_string buf (if b then "true" else "false")

let key buf c n =
  Buffer.add_char buf c;
  int buf n

let field buf s =
  Buffer.add_char buf ':';
  Buffer.add_string buf s

let field_int buf n = key buf ':' n
let field_opt buf = function None -> field buf "-1" | Some n -> field_int buf n

let field_bool buf b =
  Buffer.add_char buf ':';
  bool buf b

let to_string add x =
  let buf = Buffer.create 32 in
  add buf x;
  Buffer.contents buf

let pp_of add fmt x = Format.pp_print_string fmt (to_string add x)
