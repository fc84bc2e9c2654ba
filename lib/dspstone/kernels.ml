type t = {
  name : string;
  source : string;
  inputs : (string * int array) list;
}

(* Deterministic small input data: values in [-9, 9]. *)
let data seed n = Array.init n (fun i -> (((i * 31) + (seed * 17)) mod 19) - 9)

let scalar seed = data seed 1

let real_update =
  {
    name = "real_update";
    source =
      {|
program real_update;
input a, b, c;
output d;
begin
  d = c + a * b;
end
|};
    inputs = [ ("a", scalar 1); ("b", scalar 2); ("c", scalar 3) ];
  }

let complex_multiply =
  {
    name = "complex_multiply";
    source =
      {|
program complex_multiply;
input ar, ai, br, bi;
output cr, ci;
begin
  cr = ar * br - ai * bi;
  ci = ar * bi + ai * br;
end
|};
    inputs =
      [ ("ar", scalar 1); ("ai", scalar 2); ("br", scalar 3); ("bi", scalar 4) ];
  }

let complex_update =
  {
    name = "complex_update";
    source =
      {|
program complex_update;
input ar, ai, br, bi, cr, ci;
output dr, di;
begin
  dr = cr + ar * br - ai * bi;
  di = ci + ar * bi + ai * br;
end
|};
    inputs =
      [
        ("ar", scalar 1); ("ai", scalar 2); ("br", scalar 3); ("bi", scalar 4);
        ("cr", scalar 5); ("ci", scalar 6);
      ];
  }

let n_real_updates =
  {
    name = "n_real_updates";
    source =
      {|
program n_real_updates;
param N = 16;
input a[N], b[N], c[N];
output d[N];
begin
  for i = 0 to N - 1 do
    d[i] = c[i] + a[i] * b[i];
  end;
end
|};
    inputs = [ ("a", data 1 16); ("b", data 2 16); ("c", data 3 16) ];
  }

let n_complex_updates =
  {
    name = "n_complex_updates";
    source =
      {|
program n_complex_updates;
param N = 16;
input ar[N], ai[N], br[N], bi[N], cr[N], ci[N];
output dr[N], di[N];
begin
  for i = 0 to N - 1 do
    dr[i] = cr[i] + ar[i] * br[i] - ai[i] * bi[i];
  end;
  for j = 0 to N - 1 do
    di[j] = ci[j] + ar[j] * bi[j] + ai[j] * br[j];
  end;
end
|};
    inputs =
      [
        ("ar", data 1 16); ("ai", data 2 16); ("br", data 3 16);
        ("bi", data 4 16); ("cr", data 5 16); ("ci", data 6 16);
      ];
  }

let fir =
  {
    name = "fir";
    source =
      {|
program fir;
param N = 16;
input x0;
input c[N], x[N];
output y;
var acc;
begin
  (* shift the delay line and insert the new sample *)
  for i = 0 to N - 2 do
    x[i] = x[i + 1];
  end;
  x[N - 1] = x0;
  acc = 0;
  for j = 0 to N - 1 do
    acc = acc + c[j] * x[j];
  end;
  y = acc;
end
|};
    inputs = [ ("x0", scalar 7); ("c", data 1 16); ("x", data 2 16) ];
  }

let iir_biquad_one_section =
  {
    name = "iir_biquad_one_section";
    source =
      {|
program iir_biquad_one_section;
input x0, a1, a2, b0, b1, b2;
input w1, w2;
output y;
var w;
begin
  w = x0 - a1 * w1 - a2 * w2;
  y = b0 * w + b1 * w1 + b2 * w2;
  w2 = w1;
  w1 = w;
end
|};
    inputs =
      [
        ("x0", scalar 1); ("a1", [| 2 |]); ("a2", [| -1 |]); ("b0", [| 3 |]);
        ("b1", [| 2 |]); ("b2", [| 1 |]); ("w1", [| 4 |]); ("w2", [| -5 |]);
      ];
  }

let iir_biquad_n_sections =
  {
    name = "iir_biquad_n_sections";
    source =
      {|
program iir_biquad_n_sections;
param NS = 4;
input x0;
input a1[NS], a2[NS], b0[NS], b1[NS], b2[NS];
input w1[NS], w2[NS];
output y;
var t, w;
begin
  t = x0;
  for s = 0 to NS - 1 do
    w = t - a1[s] * w1[s] - a2[s] * w2[s];
    t = b0[s] * w + b1[s] * w1[s] + b2[s] * w2[s];
    w2[s] = w1[s];
    w1[s] = w;
  end;
  y = t;
end
|};
    inputs =
      [
        ("x0", scalar 1);
        ("a1", data 1 4); ("a2", data 2 4); ("b0", data 3 4);
        ("b1", data 4 4); ("b2", data 5 4); ("w1", data 6 4); ("w2", data 7 4);
      ];
  }

let dot_product =
  {
    name = "dot_product";
    source =
      {|
program dot_product;
param N = 16;
input a[N], b[N];
output z;
var acc;
begin
  acc = 0;
  for i = 0 to N - 1 do
    acc = acc + a[i] * b[i];
  end;
  z = acc;
end
|};
    inputs = [ ("a", data 1 16); ("b", data 2 16) ];
  }

let convolution =
  {
    name = "convolution";
    source =
      {|
program convolution;
param N = 16;
input h[N], x[N];
output y;
var acc;
begin
  acc = 0;
  for i = 0 to N - 1 do
    acc = acc + h[i] * x[N - 1 - i];
  end;
  y = acc;
end
|};
    inputs = [ ("h", data 1 16); ("x", data 2 16) ];
  }

let lms =
  {
    name = "lms";
    source =
      {|
program lms;
param N = 8;
param MU = 2;
input x0, d;
input c[N], x[N];
output y, e;
var acc;
begin
  (* shift the delay line and insert the new sample *)
  for i = 0 to N - 2 do
    x[i] = x[i + 1];
  end;
  x[N - 1] = x0;
  (* filter *)
  acc = 0;
  for j = 0 to N - 1 do
    acc = acc + c[j] * x[j];
  end;
  y = acc;
  e = d - y;
  (* coefficient adaptation *)
  for k = 0 to N - 1 do
    c[k] = c[k] + MU * e * x[k];
  end;
end
|};
    inputs =
      [ ("x0", scalar 3); ("d", scalar 4); ("c", data 1 8); ("x", data 2 8) ];
  }

let matrix_1x3 =
  {
    name = "matrix_1x3";
    source =
      {|
program matrix_1x3;
input m0[3], m1[3], m2[3], x[3];
output y0, y1, y2;
var acc;
begin
  acc = 0;
  for i = 0 to 2 do
    acc = acc + m0[i] * x[i];
  end;
  y0 = acc;
  acc = 0;
  for j = 0 to 2 do
    acc = acc + m1[j] * x[j];
  end;
  y1 = acc;
  acc = 0;
  for k = 0 to 2 do
    acc = acc + m2[k] * x[k];
  end;
  y2 = acc;
end
|};
    inputs =
      [
        ("m0", data 1 3); ("m1", data 2 3); ("m2", data 3 3); ("x", data 4 3);
      ];
  }

let all =
  [
    real_update;
    complex_multiply;
    complex_update;
    n_real_updates;
    n_complex_updates;
    fir;
    iir_biquad_one_section;
    iir_biquad_n_sections;
    dot_product;
    convolution;
  ]

let extended = [ lms; matrix_1x3 ]

let find name = List.find (fun k -> k.name = name) (all @ extended)

(* Each bundled kernel is lowered once per process, on first use, and
   shared by every domain. *)
let lowered : (t * Ir.Prog.t) list Atomic.t = Atomic.make []

let rec remember k p =
  let cur = Atomic.get lowered in
  match List.assq_opt k cur with
  | Some p -> p
  | None ->
    if Atomic.compare_and_set lowered cur ((k, p) :: cur) then p
    else remember k p

let prog k =
  match List.assq_opt k (Atomic.get lowered) with
  | Some p -> p
  | None ->
    let p = Dfl.Lower.source k.source in
    if List.memq k all || List.memq k extended then remember k p else p

let reference_outputs k = Ir.Eval.run_with_inputs (prog k) k.inputs
