(* Log-scale histogram: geometric buckets, O(log buckets) observation,
   within-bucket log-interpolated quantiles.

   This generalises the fixed decade buckets that used to live privately
   in gp_service's Metrics: bucket boundaries are [lo * r^k] for
   r = 10^(1/buckets_per_decade), so resolution is a configuration knob
   rather than a constant. Quantile estimates interpolate inside the
   bucket under a log-uniform assumption and clamp to the observed
   [min, max], which pins them within one bucket ratio of the exact
   sample quantile (property-tested in test_telemetry). *)

(* The float totals live in a record of floats only, which OCaml stores
   flat: an observation updates them without boxing a float. *)
type moments = {
  mutable sum : float;
  mutable vmin : float;
  mutable vmax : float;
}

type t = {
  bounds : float array; (* strictly increasing upper bounds; last = +inf *)
  counts : int array;
  mutable count : int;
  m : moments;
}

(* Default range covers 1ns .. 10s when observations are nanoseconds. *)
let create ?(lo = 1.0) ?(hi = 1e10) ?(buckets_per_decade = 5) () =
  if lo <= 0.0 || hi <= lo then invalid_arg "Histogram.create: need 0 < lo < hi";
  if buckets_per_decade < 1 then
    invalid_arg "Histogram.create: buckets_per_decade < 1";
  let ratio = 10.0 ** (1.0 /. float_of_int buckets_per_decade) in
  let rec build acc b = if b >= hi then List.rev acc else build (b :: acc) (b *. ratio) in
  let finite = build [] lo in
  let bounds = Array.of_list (finite @ [ infinity ]) in
  {
    bounds;
    counts = Array.make (Array.length bounds) 0;
    count = 0;
    m = { sum = 0.0; vmin = infinity; vmax = neg_infinity };
  }

let ratio t =
  if Array.length t.bounds < 2 then 10.0 else t.bounds.(1) /. t.bounds.(0)

(* Index of the first bound >= v (binary search; last bucket catches all). *)
let bucket_index t v =
  let n = Array.length t.bounds in
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if v <= t.bounds.(mid) then hi := mid else lo := mid + 1
  done;
  !lo

let observe t v =
  let i = bucket_index t v in
  t.counts.(i) <- t.counts.(i) + 1;
  t.count <- t.count + 1;
  let m = t.m in
  m.sum <- m.sum +. v;
  if v < m.vmin then m.vmin <- v;
  if v > m.vmax then m.vmax <- v

let count t = t.count
let sum t = t.m.sum
let min_value t = if t.count = 0 then nan else t.m.vmin
let max_value t = if t.count = 0 then nan else t.m.vmax
let mean t = if t.count = 0 then nan else t.m.sum /. float_of_int t.count

(* The [q]-quantile (0 < q <= 1) of the observed sample, estimated by
   walking to the bucket holding the ceil(q*n)-th observation and
   interpolating log-uniformly inside it. *)
let quantile t q =
  if t.count = 0 then nan
  else begin
    let target = int_of_float (ceil (q *. float_of_int t.count)) in
    let target = if target < 1 then 1 else target in
    let n = Array.length t.bounds in
    let rec find i acc =
      if i >= n then n - 1
      else
        let acc' = acc + t.counts.(i) in
        if acc' >= target then i else find (i + 1) acc'
    in
    let rec before i acc j =
      if j >= i then acc else before i (acc + t.counts.(j)) (j + 1)
    in
    let i = find 0 0 in
    let cum_before = before i 0 0 in
    let upper = t.bounds.(i) in
    let lower = if i = 0 then t.bounds.(0) /. ratio t else t.bounds.(i - 1) in
    let est =
      if upper = infinity then t.m.vmax
      else
        let frac =
          float_of_int (target - cum_before) /. float_of_int t.counts.(i)
        in
        lower *. ((upper /. lower) ** frac)
    in
    (* the sample extremes are known exactly; never estimate past them *)
    Float.min t.m.vmax (Float.max t.m.vmin est)
  end

let buckets t =
  Array.init (Array.length t.bounds) (fun i -> (t.bounds.(i), t.counts.(i)))

let clear t =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  t.count <- 0;
  t.m.sum <- 0.0;
  t.m.vmin <- infinity;
  t.m.vmax <- neg_infinity
