(* The digits of [-m] for [m <= 0], most significant first.  Working on the
   non-positive side covers [min_int], whose magnitude has no int. *)
let rec add_neg b m =
  if m <= -10 then add_neg b (m / 10);
  Buffer.add_char b (Char.unsafe_chr (48 - (m mod 10)))

let add_int b n =
  if n < 0 then begin
    Buffer.add_char b '-';
    add_neg b n
  end
  else add_neg b (-n)
