exception Error of string

(* A word's token: a keyword, matched on the string itself (no polymorphic
   compare per keyword), or an identifier. *)
let word_token = function
  | "program" -> Token.Kprogram
  | "param" -> Token.Kparam
  | "input" -> Token.Kinput
  | "output" -> Token.Koutput
  | "var" -> Token.Kvar
  | "begin" -> Token.Kbegin
  | "end" -> Token.Kend
  | "for" -> Token.Kfor
  | "to" -> Token.Kto
  | "do" -> Token.Kdo
  | "sat" -> Token.Ksat
  | word -> Token.Ident word

let is_digit c = c >= '0' && c <= '9'
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_alnum c = is_alpha c || is_digit c

let tokenize src =
  let n = String.length src in
  let out = ref [] in
  let line = ref 1 in
  let fail fmt =
    Format.kasprintf (fun s -> raise (Error (Printf.sprintf "line %d: %s" !line s))) fmt
  in
  let emit tok = out := (tok, !line) :: !out in
  let rec skip_comment i depth =
    if i >= n then fail "unterminated comment"
    else if i + 1 < n && src.[i] = '(' && src.[i + 1] = '*' then
      skip_comment (i + 2) (depth + 1)
    else if i + 1 < n && src.[i] = '*' && src.[i + 1] = ')' then
      if depth = 1 then i + 2 else skip_comment (i + 2) (depth - 1)
    else begin
      if src.[i] = '\n' then incr line;
      skip_comment (i + 1) depth
    end
  in
  let rec go i =
    if i >= n then emit Token.Eof
    else
      let c = src.[i] in
      if c = '\n' then begin
        incr line;
        go (i + 1)
      end
      else if c = ' ' || c = '\t' || c = '\r' then go (i + 1)
      else if i + 1 < n && c = '(' && src.[i + 1] = '*' then
        go (skip_comment (i + 2) 1)
      else if is_digit c then begin
        let j = ref i in
        while !j < n && is_digit src.[!j] do
          incr j
        done;
        emit (Token.Int (int_of_string (String.sub src i (!j - i))));
        go !j
      end
      else if is_alpha c then begin
        let j = ref i in
        while !j < n && is_alnum src.[!j] do
          incr j
        done;
        emit (word_token (String.sub src i (!j - i)));
        go !j
      end
      else if i + 1 < n && c = '<' && src.[i + 1] = '<' then begin
        emit Token.Shl;
        go (i + 2)
      end
      else if i + 1 < n && c = '>' && src.[i + 1] = '>' then begin
        emit Token.Shr;
        go (i + 2)
      end
      else begin
        (match c with
        | '+' -> emit Token.Plus
        | '-' -> emit Token.Minus
        | '*' -> emit Token.Star
        | '&' -> emit Token.Amp
        | '|' -> emit Token.Pipe
        | '^' -> emit Token.Caret
        | '~' -> emit Token.Tilde
        | '(' -> emit Token.Lparen
        | ')' -> emit Token.Rparen
        | '[' -> emit Token.Lbracket
        | ']' -> emit Token.Rbracket
        | '=' -> emit Token.Assign
        | ';' -> emit Token.Semi
        | ',' -> emit Token.Comma
        | c -> fail "illegal character %C" c);
        go (i + 1)
      end
  in
  go 0;
  List.rev !out
