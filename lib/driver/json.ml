type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ---- encoding ------------------------------------------------------------ *)

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else Printf.sprintf "%.6g" f

let to_string ?(indent = false) t =
  let buf = Buffer.create 256 in
  let pad n = if indent then Buffer.add_string buf (String.make (2 * n) ' ') in
  let nl () = if indent then Buffer.add_char buf '\n' in
  let rec go depth t =
    match t with
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Int k -> Ir.Decimal.add_int buf k
    | Float f -> Buffer.add_string buf (float_repr f)
    | String s -> escape buf s
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
      Buffer.add_char buf '[';
      nl ();
      List.iteri
        (fun i item ->
          if i > 0 then begin
            Buffer.add_char buf ',';
            nl ()
          end;
          pad (depth + 1);
          go (depth + 1) item)
        items;
      nl ();
      pad depth;
      Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
      Buffer.add_char buf '{';
      nl ();
      List.iteri
        (fun i (name, value) ->
          if i > 0 then begin
            Buffer.add_char buf ',';
            nl ()
          end;
          pad (depth + 1);
          escape buf name;
          Buffer.add_string buf (if indent then ": " else ":");
          go (depth + 1) value)
        fields;
      nl ();
      pad depth;
      Buffer.add_char buf '}'
  in
  go 0 t;
  Buffer.contents buf

let pp ppf t = Format.pp_print_string ppf (to_string ~indent:true t)

(* ---- parsing ------------------------------------------------------------- *)

exception Parse of int * string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | Some _ | None -> ()
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | Some d -> fail (Printf.sprintf "expected '%c', found '%c'" c d)
    | None -> fail (Printf.sprintf "expected '%c', found end of input" c)
  in
  let literal word value =
    let m = String.length word in
    if !pos + m <= n && String.sub s !pos m = word then begin
      pos := !pos + m;
      value
    end
    else fail ("expected " ^ word)
  in
  let string_lit () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
        advance ();
        match peek () with
        | None -> fail "unterminated escape"
        | Some c ->
          advance ();
          (match c with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | 'r' -> Buffer.add_char buf '\r'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' ->
            if !pos + 4 > n then fail "truncated \\u escape";
            let hex = String.sub s !pos 4 in
            pos := !pos + 4;
            let code =
              match int_of_string_opt ("0x" ^ hex) with
              | Some c -> c
              | None -> fail ("bad \\u escape " ^ hex)
            in
            (* Encode the code point as UTF-8 (BMP only, which covers
               every string the protocol itself produces). *)
            if code < 0x80 then Buffer.add_char buf (Char.chr code)
            else if code < 0x800 then begin
              Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end
            else begin
              Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
              Buffer.add_char buf
                (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end
          | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
          go ())
      | Some c ->
        advance ();
        Buffer.add_char buf c;
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    match int_of_string_opt text with
    | Some k -> Int k
    | None -> (
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail ("bad number " ^ text))
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec fields_loop () =
          skip_ws ();
          let name = string_lit () in
          (* RFC 8259 leaves duplicate names undefined; different readers
             keep different occurrences, which makes duplicates a classic
             smuggling vector in a job protocol.  Reject them outright. *)
          if List.mem_assoc name !fields then
            fail (Printf.sprintf "duplicate object key %S" name);
          skip_ws ();
          expect ':';
          let v = value () in
          fields := (name, v) :: !fields;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            fields_loop ()
          | Some '}' -> advance ()
          | _ -> fail "expected ',' or '}' in object"
        in
        fields_loop ();
        Obj (List.rev !fields)
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [] in
        let rec items_loop () =
          let v = value () in
          items := v :: !items;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items_loop ()
          | Some ']' -> advance ()
          | _ -> fail "expected ',' or ']' in array"
        in
        items_loop ();
        List (List.rev !items)
      end
    | Some '"' -> String (string_lit ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> number ()
  in
  match
    let v = value () in
    skip_ws ();
    if !pos <> n then fail "trailing content after document";
    v
  with
  | v -> Ok v
  | exception Parse (at, msg) ->
    Error (Printf.sprintf "JSON error at byte %d: %s" at msg)

(* ---- accessors ----------------------------------------------------------- *)

let member name = function
  | Obj fields -> List.assoc_opt name fields
  | Null | Bool _ | Int _ | Float _ | String _ | List _ -> None

let to_int = function Int k -> Some k | _ -> None

let to_string_lit = function String s -> Some s | _ -> None
let to_list = function List items -> Some items | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
