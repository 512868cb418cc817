(* Arcs live in flat arrays; arc [i] and its reverse are the pair
   [i lxor 1].  Capacities are restored from [orig_cap] at the start of
   every query so a network can be queried repeatedly.  The Dijkstra
   state ([dist], [prev], the potentials [pi] and the indexed heap) is
   sized once at [create] and reused by every query. *)

type t = {
  n : int;
  head : int array; (* head.(v) = first arc index of v, or -1 *)
  mutable nxt : int array;
  mutable dst : int array;
  mutable cap : int array;
  mutable cost : int array;
  mutable orig_cap : int array;
  mutable m : int;
  dist : int array; (* reduced-cost distance of the current search *)
  prev : int array; (* arc that last lowered dist.(v) *)
  pi : int array; (* Johnson potentials: reduced costs stay >= 0 *)
  heap : int array; (* binary min-heap of nodes keyed by dist *)
  pos : int array; (* pos.(v) = index of v in heap, or -1 *)
  mutable size : int;
}

type arc = int

let create n =
  {
    n;
    head = Array.make n (-1);
    nxt = [||];
    dst = [||];
    cap = [||];
    cost = [||];
    orig_cap = [||];
    m = 0;
    dist = Array.make n max_int;
    prev = Array.make n (-1);
    pi = Array.make n 0;
    heap = Array.make n 0;
    pos = Array.make n (-1);
    size = 0;
  }

let grow t =
  let old = Array.length t.dst in
  if t.m + 2 > old then begin
    let cap' = max 16 (2 * old) in
    let extend a = Array.init cap' (fun i -> if i < old then a.(i) else 0) in
    t.nxt <- extend t.nxt;
    t.dst <- extend t.dst;
    t.cap <- extend t.cap;
    t.cost <- extend t.cost;
    t.orig_cap <- extend t.orig_cap
  end

let push_arc t src dst cap cost =
  grow t;
  let i = t.m in
  t.m <- i + 1;
  t.nxt.(i) <- t.head.(src);
  t.head.(src) <- i;
  t.dst.(i) <- dst;
  t.cap.(i) <- cap;
  t.orig_cap.(i) <- cap;
  t.cost.(i) <- cost

let new_arc t ~src ~dst ~cap ~cost =
  if cost < 0 then invalid_arg "Flow.add_arc: negative cost";
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg "Flow.add_arc: node out of range";
  let a = t.m in
  push_arc t src dst cap cost;
  push_arc t dst src 0 (-cost);
  a

let add_arc t ~src ~dst ~cap ~cost = ignore (new_arc t ~src ~dst ~cap ~cost)

let set_cap t a cap = t.orig_cap.(a) <- cap

(* Only forward arcs ever have a positive base capacity, and their
   costs are non-negative, so zero potentials are valid at the start
   of every query. *)
let reset t =
  Array.blit t.orig_cap 0 t.cap 0 t.m;
  Array.fill t.pi 0 t.n 0

(* ---- indexed binary heap over t.dist ---- *)

let place t i v =
  t.heap.(i) <- v;
  t.pos.(v) <- i

let sift_up t i =
  let v = t.heap.(i) in
  let dv = t.dist.(v) in
  let i = ref i in
  while !i > 0 && t.dist.(t.heap.((!i - 1) / 2)) > dv do
    let p = (!i - 1) / 2 in
    place t !i t.heap.(p);
    i := p
  done;
  place t !i v

let sift_down t i =
  let v = t.heap.(i) in
  let dv = t.dist.(v) in
  let i = ref i in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= t.size then continue := false
    else begin
      let c =
        if l + 1 < t.size && t.dist.(t.heap.(l + 1)) < t.dist.(t.heap.(l))
        then l + 1
        else l
      in
      if t.dist.(t.heap.(c)) < dv then begin
        place t !i t.heap.(c);
        i := c
      end
      else continue := false
    end
  done;
  place t !i v

let pop_min t =
  let v = t.heap.(0) in
  t.size <- t.size - 1;
  t.pos.(v) <- -1;
  if t.size > 0 then begin
    place t 0 t.heap.(t.size);
    sift_down t 0
  end;
  v

(* Dijkstra on reduced costs [cost + pi(u) - pi(v)], stopping once the
   sink is settled. Returns false when the sink is unreachable. On
   success, every potential rises by [min dist(v) dist(sink)], which
   keeps all residual reduced costs non-negative (including those of
   the reverse arcs the augmentation is about to open: they lie on a
   tight shortest path). *)
let dijkstra t ~source ~sink =
  for i = 0 to t.size - 1 do
    t.pos.(t.heap.(i)) <- -1
  done;
  t.size <- 0;
  Array.fill t.dist 0 t.n max_int;
  t.dist.(source) <- 0;
  place t 0 source;
  t.size <- 1;
  let settled = ref false in
  while (not !settled) && t.size > 0 do
    let u = pop_min t in
    if u = sink then settled := true
    else begin
      let base = t.dist.(u) + t.pi.(u) in
      let i = ref t.head.(u) in
      while !i >= 0 do
        let a = !i in
        if t.cap.(a) > 0 then begin
          let v = t.dst.(a) in
          let nd = base + t.cost.(a) - t.pi.(v) in
          if nd < t.dist.(v) then begin
            t.dist.(v) <- nd;
            t.prev.(v) <- a;
            if t.pos.(v) < 0 then begin
              place t t.size v;
              t.size <- t.size + 1
            end;
            sift_up t t.pos.(v)
          end
        end;
        i := t.nxt.(a)
      done
    end
  done;
  if !settled then begin
    let ds = t.dist.(sink) in
    for v = 0 to t.n - 1 do
      t.pi.(v) <- t.pi.(v) + min t.dist.(v) ds
    done
  end;
  !settled

(* [arc_src] recovers an arc's source as the destination of its twin. *)
let arc_src t a = t.dst.(a lxor 1)

(* Successive shortest paths. After [dijkstra] updates the potentials,
   [pi(sink) - pi(source)] is the path's cost in the original costs. *)
let run t ~source ~sink ~amount =
  reset t;
  let shipped = ref 0 in
  let total_cost = ref 0 in
  while !shipped < amount && dijkstra t ~source ~sink do
    let rec bottleneck v acc =
      if v = source then acc
      else
        let a = t.prev.(v) in
        bottleneck (arc_src t a) (min acc t.cap.(a))
    in
    let push = min (amount - !shipped) (bottleneck sink max_int) in
    let rec apply v =
      if v <> source then begin
        let a = t.prev.(v) in
        t.cap.(a) <- t.cap.(a) - push;
        t.cap.(a lxor 1) <- t.cap.(a lxor 1) + push;
        apply (arc_src t a)
      end
    in
    apply sink;
    shipped := !shipped + push;
    total_cost := !total_cost + (push * (t.pi.(sink) - t.pi.(source)))
  done;
  (!shipped, !total_cost)

let min_cost_flow t ~source ~sink ~amount =
  let shipped, cost = run t ~source ~sink ~amount in
  if shipped = amount then Some cost else None

let max_flow_value t ~source ~sink =
  let shipped, _ = run t ~source ~sink ~amount:max_int in
  shipped
