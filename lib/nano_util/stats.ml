type t = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float;
  mutable min : float;
  mutable max : float;
}

let create () = { n = 0; mean = 0.; m2 = 0.; min = infinity; max = neg_infinity }

let add t x =
  t.n <- t.n + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if x < t.min then t.min <- x;
  if x > t.max then t.max <- x

let add_many t xs = List.iter (add t) xs
let count t = t.n
let mean t = if t.n = 0 then 0. else t.mean
let variance t = if t.n < 2 then 0. else t.m2 /. float_of_int (t.n - 1)
let stddev t = sqrt (variance t)

let min_value t =
  if t.n = 0 then invalid_arg "Stats.min_value: empty" else t.min

let max_value t =
  if t.n = 0 then invalid_arg "Stats.max_value: empty" else t.max

let confidence95 t =
  if t.n < 2 then 0. else 1.96 *. stddev t /. sqrt (float_of_int t.n)

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  ci95 : float;
}

let summary (t : t) =
  if t.n = 0 then invalid_arg "Stats.summary: empty";
  {
    n = t.n;
    mean = mean t;
    stddev = stddev t;
    min = t.min;
    max = t.max;
    ci95 = confidence95 t;
  }
