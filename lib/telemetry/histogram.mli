(** Log-scale histogram: geometric buckets [lo * r^k] for
    [r = 10^(1/buckets_per_decade)], O(log buckets) observation, and
    within-bucket log-interpolated quantiles clamped to the observed
    extremes — every estimate lands within one bucket ratio of the exact
    sample quantile. *)

type t

val create : ?lo:float -> ?hi:float -> ?buckets_per_decade:int -> unit -> t
(** Defaults: [lo = 1.0], [hi = 1e10], [buckets_per_decade = 5] — 1ns to
    10s at ~58% resolution when observations are nanoseconds. A final
    +inf bucket catches overflow. Raises [Invalid_argument] unless
    [0 < lo < hi] and [buckets_per_decade >= 1]. *)

val observe : t -> float -> unit

val count : t -> int
val sum : t -> float

val mean : t -> float
(** [nan] when empty. *)

val min_value : t -> float
(** Exact observed minimum; [nan] when empty. *)

val max_value : t -> float
(** Exact observed maximum; [nan] when empty. *)

val quantile : t -> float -> float
(** [quantile t q] for [0 < q <= 1]: the bucket holding the
    [ceil (q * count)]-th observation, log-interpolated within the
    bucket and clamped to [[min_value, max_value]]. [nan] when empty. *)

val ratio : t -> float
(** The geometric bucket ratio — the worst-case quantile error factor. *)

val buckets : t -> (float * int) array
(** [(upper_bound, count)] per bucket, non-cumulative; the last upper
    bound is [infinity]. *)

val clear : t -> unit
