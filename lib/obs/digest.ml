(* A mergeable streaming quantile digest: the one log-bucket sketch.

   Observations are binned at geometric bucket boundaries gamma^i with
   gamma = 2^(1/8) (~9% relative resolution), the scheme DDSketch/HDR
   use; non-positive observations land in a dedicated zero bucket. The
   registry's histograms are digests, and digests compose: bucket
   counts add, so merging the digests of two streams gives exactly the
   digest of their concatenation (min/max and sum are exact too; only
   the within-bucket position of individual observations is
   forgotten, which is the same ~9% relative error a single digest
   already has). This is what lets per-shard percentiles roll up into
   fleet percentiles without shipping raw samples. *)

let gamma = Float.pow 2.0 0.125
let log_gamma = Float.log gamma

type t = {
  mutable count : int;
  mutable sum : float;
  mutable vmin : float;
  mutable vmax : float;
  mutable zero : int;
  buckets : (int, int) Hashtbl.t;
}

let create () =
  {
    count = 0;
    sum = 0.0;
    vmin = infinity;
    vmax = neg_infinity;
    zero = 0;
    buckets = Hashtbl.create 32;
  }

let reset t =
  t.count <- 0;
  t.sum <- 0.0;
  t.vmin <- infinity;
  t.vmax <- neg_infinity;
  t.zero <- 0;
  Hashtbl.reset t.buckets

let copy t = { t with buckets = Hashtbl.copy t.buckets }

let bucket_of v = int_of_float (Float.floor (Float.log v /. log_gamma))

let bucket t b = Option.value ~default:0 (Hashtbl.find_opt t.buckets b)

let add_bucket t b n =
  if n > 0 then Hashtbl.replace t.buckets b (n + bucket t b)

let add t v =
  t.count <- t.count + 1;
  t.sum <- t.sum +. v;
  if v < t.vmin then t.vmin <- v;
  if v > t.vmax then t.vmax <- v;
  if v <= 0.0 then t.zero <- t.zero + 1 else add_bucket t (bucket_of v) 1

let of_list vs =
  let t = create () in
  List.iter (add t) vs;
  t

let count t = t.count
let sum t = t.sum
let min t = if t.count = 0 then 0.0 else t.vmin
let max t = if t.count = 0 then 0.0 else t.vmax
let zero t = t.zero
let is_empty t = t.count = 0

let buckets t =
  Hashtbl.fold (fun b n acc -> (b, n) :: acc) t.buckets [] |> List.sort compare

(* Accumulate [src] into [dst]. Exact: counts add bucket-wise. *)
let merge_into ~dst src =
  dst.count <- dst.count + src.count;
  dst.sum <- dst.sum +. src.sum;
  if src.vmin < dst.vmin then dst.vmin <- src.vmin;
  if src.vmax > dst.vmax then dst.vmax <- src.vmax;
  dst.zero <- dst.zero + src.zero;
  Hashtbl.iter (add_bucket dst) src.buckets

let merge a b =
  let t = create () in
  merge_into ~dst:t a;
  merge_into ~dst:t b;
  t

let merge_all ds =
  let t = create () in
  List.iter (fun d -> merge_into ~dst:t d) ds;
  t

(* The activity between two states of one digest. min/max come from
   [after]: the window extremes are not recoverable from summaries.

   A digest restarts when it is [reset] mid-window, and a restarted
   digest must not subtract: the after-side population IS the window's
   activity. The telltale is any count going backwards — the total,
   the zero bucket or any individual bucket (the "only new buckets
   appeared" window: the old population vanished with the reset, so
   naive subtraction would report negative counts). *)
let diff ~before ~after =
  let restarted =
    after.count < before.count
    || after.zero < before.zero
    || Hashtbl.fold (fun b n0 acc -> acc || bucket after b < n0) before.buckets
         false
  in
  if restarted then copy after
  else begin
    let t = copy after in
    t.count <- after.count - before.count;
    t.sum <- after.sum -. before.sum;
    t.zero <- after.zero - before.zero;
    Hashtbl.iter
      (fun b n0 ->
        let d = bucket after b - n0 in
        if d > 0 then Hashtbl.replace t.buckets b d
        else Hashtbl.remove t.buckets b)
      before.buckets;
    t
  end

(* Rank walk over the zero bucket then the sorted log buckets; a bucket
   answers with its geometric midpoint, clamped to the observed
   extremes. *)
let quantile t q =
  if t.count = 0 then 0.0
  else begin
    let rank =
      Stdlib.max 1 (int_of_float (Float.ceil (q *. float_of_int t.count)))
    in
    if rank <= t.zero then 0.0
    else begin
      let rec walk seen = function
        | [] -> t.vmax
        | (b, n) :: rest ->
          let seen = seen + n in
          if seen >= rank then Float.pow gamma (float_of_int b +. 0.5)
          else walk seen rest
      in
      let v = walk t.zero (buckets t) in
      Float.min t.vmax (Float.max t.vmin v)
    end
  end

(* The guaranteed accuracy of [quantile]: a positive observation in
   bucket b lies in (gamma^b, gamma^(b+1)]; the midpoint gamma^(b+0.5)
   is within a factor sqrt(gamma) of any point of the bucket. *)
let relative_error = Float.sqrt gamma -. 1.0

let to_json t =
  let module J = San_util.Json in
  J.Obj
    [
      ("count", J.int t.count);
      ("sum", J.Num t.sum);
      ("min", J.Num (min t));
      ("max", J.Num (max t));
      ("zero", J.int t.zero);
      ( "buckets",
        J.Arr (List.map (fun (b, n) -> J.Arr [ J.int b; J.int n ]) (buckets t))
      );
      ("p50", J.Num (quantile t 0.50));
      ("p95", J.Num (quantile t 0.95));
      ("p99", J.Num (quantile t 0.99));
    ]
