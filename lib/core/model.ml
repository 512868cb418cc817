open San_topology
module Why = San_why.Why

exception Inconsistent of string

let fail fmt = Printf.ksprintf (fun s -> raise (Inconsistent s)) fmt

type vid = int
type vkind = Vhost of string | Vswitch

type edge = {
  eid : int;
  mutable ea : vid; (* always a canonical vertex *)
  mutable ia : int; (* slot in ea's frame *)
  mutable eb : vid;
  mutable ib : int;
  mutable e_dead : bool;
}

(* Slots live in a fixed dense array rather than a hashtable: the
   window narrowing in [add_edge]/[do_merge] proves every occupied slot
   of a switch lies in [-(radix-1), radix-1] (a slot outside that range
   empties the feasible-offset window first), so index [slot + s_base]
   with s_base = radix-1 always fits. Hosts only ever use slot 0.
   Only canonical vertices keep a record: a merge releases the absorbed
   one, whose id then resolves through the union-find columns of [t]. *)
type vertex = {
  v_id : vid;
  v_kind : vkind;
  slots : edge list array;
  s_base : int; (* array index = slot + s_base *)
  mutable explored : bool;
  mutable dead : bool;
  mutable wlo : int; (* feasible actual entry-port offset window *)
  mutable whi : int;
}

(* Probe strings form one forest of (parent node, turn) pairs: node 0
   is the empty probe, and a vertex whose probe extends its parent
   vertex's by one turn gets one node under the parent's node, so the
   common prefixes of the breadth-first search are stored once. *)
type t = {
  m_radix : int;
  mutable verts : vertex array; (* [released] once merged away *)
  mutable nverts : int;
  released : vertex;
  mutable uf_parent : int array; (* union-find; self when canonical *)
  mutable uf_shift : int array; (* own slot + uf_shift = parent slot *)
  mutable v_node : int array; (* the vertex's probe-forest node *)
  mutable pf_up : int array;
  mutable pf_turn : int array;
  mutable pf_len : int array;
  mutable nnodes : int;
  host_names : (string, vid) Hashtbl.t;
  mergelist : vid Queue.t;
  mutable edges : edge array; (* creation order; dead ones drop out *)
  mutable nedges : int;
  mutable n_edges_created : int;
  mutable n_edges_live : int;
  mutable n_verts_live : int;
  m_root_host : vid;
  m_root_switch : vid;
}

let radix t = t.m_radix
let root_host t = t.m_root_host
let root_switch t = t.m_root_switch

let vertex t v =
  if v < 0 || v >= t.nverts then fail "no vertex %d" v;
  t.verts.(v)

(* Union-find root lookup with path compression: afterwards every
   vertex on the path points at the root, its shift accumulated to the
   root's frame. *)
let rec root t v =
  let p = t.uf_parent.(v) in
  if p = v then v
  else begin
    let r = root t p in
    if p <> r then begin
      t.uf_shift.(v) <- t.uf_shift.(v) + t.uf_shift.(p);
      t.uf_parent.(v) <- r
    end;
    r
  end

(* The shift from [v]'s frame to its root [r]'s, read right after
   [root t v] compressed the path. *)
let shift_to t v r = if r = v then 0 else t.uf_shift.(v)

let canonical t v = root t v

let frame_shift t v = shift_to t v (root t v)

let resized a cap fill =
  let b = Array.make cap fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let new_node t ~up ~turn =
  let n = t.nnodes in
  if n >= Array.length t.pf_up then begin
    let cap = 2 * n in
    t.pf_up <- resized t.pf_up cap 0;
    t.pf_turn <- resized t.pf_turn cap 0;
    t.pf_len <- resized t.pf_len cap 0
  end;
  t.pf_up.(n) <- up;
  t.pf_turn.(n) <- turn;
  t.pf_len.(n) <- t.pf_len.(up) + 1;
  t.nnodes <- n + 1;
  n

(* The rest of [l] once node [n]'s probe is stripped off its front;
   raises [Exit] if [l] does not start with it. Allocates nothing. *)
let rec strip t n l =
  if n = 0 then l
  else
    match strip t t.pf_up.(n) l with
    | x :: rest when x = t.pf_turn.(n) -> rest
    | _ -> raise_notrace Exit

(* The node for a child of [parent] behind [turn] created by [probe]:
   one node under the parent's when [probe] is the parent's probe plus
   [turn], as in the breadth-first search. A probe spliced in from
   elsewhere (the randomized mapper's coupon paths) gets its own
   chain. *)
let probe_node t ~parent ~turn probe =
  let up = t.v_node.(parent) in
  match strip t up probe with
  | [ x ] when x = turn -> new_node t ~up ~turn
  | _ | (exception Exit) ->
    List.fold_left (fun up turn -> new_node t ~up ~turn) 0 probe

let record ~radix id kind =
  let nslots, s_base =
    match kind with
    | Vhost _ -> (1, 0)
    | Vswitch -> ((2 * radix) - 1, radix - 1)
  in
  {
    v_id = id;
    v_kind = kind;
    slots = Array.make nslots [];
    s_base;
    explored = false;
    dead = false;
    wlo = 0;
    whi = radix - 1;
  }

let alloc t kind node =
  let id = t.nverts in
  let vx = record ~radix:t.m_radix id kind in
  if id >= Array.length t.verts then begin
    let cap = max 16 (2 * id) in
    t.verts <- resized t.verts cap t.released;
    t.uf_parent <- resized t.uf_parent cap 0;
    t.uf_shift <- resized t.uf_shift cap 0;
    t.v_node <- resized t.v_node cap 0
  end;
  t.verts.(id) <- vx;
  t.uf_parent.(id) <- id;
  t.v_node.(id) <- node;
  t.nverts <- id + 1;
  t.n_verts_live <- t.n_verts_live + 1;
  id

(* Append [e]. A full array first drops its dead edges in place,
   keeping the survivors in creation order, and grows only if at least
   half of them are live, so dead edges cost no memory for long and
   every push stays amortised O(1). *)
let push_edge t e =
  if t.nedges = Array.length t.edges then begin
    let n = ref 0 in
    for i = 0 to t.nedges - 1 do
      let f = t.edges.(i) in
      if not f.e_dead then begin
        t.edges.(!n) <- f;
        incr n
      end
    done;
    Array.fill t.edges !n (t.nedges - !n) e;
    t.nedges <- !n;
    if 2 * !n >= Array.length t.edges then
      t.edges <- resized t.edges (max 16 (2 * Array.length t.edges)) e
  end;
  t.edges.(t.nedges) <- e;
  t.nedges <- t.nedges + 1

(* The live edges, newest first. *)
let live_edge_list t =
  let acc = ref [] in
  for i = 0 to t.nedges - 1 do
    let e = t.edges.(i) in
    if not e.e_dead then acc := e :: !acc
  done;
  !acc

let narrow_window t vx i =
  match vx.v_kind with
  | Vhost name -> if i <> 0 then fail "host %s wired at slot %d" name i
  | Vswitch ->
    vx.wlo <- max vx.wlo (-i);
    vx.whi <- min vx.whi (t.m_radix - 1 - i);
    if vx.wlo > vx.whi then
      fail "switch vertex %d: slot %d leaves no feasible port offset" vx.v_id i

(* Reads tolerate any slot (out of range = vacant): probe planning asks
   about arbitrary turns in shifted frames. Writes must be in range —
   the window narrowing guarantees it, so a violation is a real
   inconsistency, not a storage concern. *)
let slot_get xv i =
  let idx = i + xv.s_base in
  if idx < 0 || idx >= Array.length xv.slots then [] else xv.slots.(idx)

let slot_add xv i e =
  let idx = i + xv.s_base in
  if idx < 0 || idx >= Array.length xv.slots then
    fail "vertex %d: slot %d escapes the radix window" xv.v_id i
  else xv.slots.(idx) <- e :: xv.slots.(idx)

let has_live l = List.exists (fun e -> not e.e_dead) l

(* More than one live edge: an actual port has one cable, so this slot
   identifies two replicates. *)
let rec two_live = function
  | [] -> false
  | e :: rest -> if e.e_dead then two_live rest else has_live rest

(* Attach a fresh edge between two canonical (vertex, slot) ends and
   queue any slot conflict it creates. *)
let add_edge t (va, ia) (vb, ib) =
  let xa = vertex t va and xb = vertex t vb in
  if va = vb && ia = ib then fail "edge from slot (%d,%d) to itself" va ia;
  let e =
    { eid = t.n_edges_created; ea = va; ia; eb = vb; ib; e_dead = false }
  in
  t.n_edges_created <- t.n_edges_created + 1;
  t.n_edges_live <- t.n_edges_live + 1;
  push_edge t e;
  narrow_window t xa ia;
  narrow_window t xb ib;
  slot_add xa ia e;
  if two_live (slot_get xa ia) then Queue.add va t.mergelist;
  slot_add xb ib e;
  if two_live (slot_get xb ib) then Queue.add vb t.mergelist

(* Re-home the edges at [absorb]'s slot [i] to [keep]'s slot [tgt]. *)
let rec rehome t ~keep ~absorb xk i tgt = function
  | [] -> ()
  | e :: rest ->
    if not e.e_dead then begin
      if e.ea = absorb && e.ia = i then begin
        e.ea <- keep;
        e.ia <- tgt
      end;
      if e.eb = absorb && e.ib = i then begin
        e.eb <- keep;
        e.ib <- tgt
      end;
      if e.ea = e.eb && e.ia = e.ib then
        fail "merge wires slot (%d,%d) to itself" e.ea e.ia;
      (* A self-edge of [absorb] is visited from both of its slots;
         insert it only once per slot. *)
      if not (List.memq e (slot_get xk tgt)) then slot_add xk tgt e;
      if two_live (slot_get xk tgt) then Queue.add keep t.mergelist
    end;
    rehome t ~keep ~absorb xk i tgt rest

(* Merge canonical [absorb] into canonical [keep]; [shift] converts
   absorb-frame slots into keep-frame slots. [why], when provenance is
   on, produces the ledger entry justifying the identification. *)
let do_merge ?why t ~keep ~absorb ~shift =
  if keep = absorb then begin
    if shift <> 0 then
      fail "vertex %d deduced equal to itself at shift %d" keep shift
  end
  else begin
    let xk = vertex t keep and xa = vertex t absorb in
    if xk.dead || xa.dead then fail "merge involving a pruned vertex";
    (match (xk.v_kind, xa.v_kind) with
    | Vswitch, Vswitch -> ()
    | Vhost n1, Vhost n2 ->
      if n1 <> n2 then fail "hosts %s and %s deduced equal" n1 n2
    | Vhost n, Vswitch | Vswitch, Vhost n ->
      fail "host %s deduced equal to a switch" n);
    xk.explored <- xk.explored || xa.explored;
    (* Offsets: o_keep = o_absorb - shift. *)
    xk.wlo <- max xk.wlo (xa.wlo - shift);
    xk.whi <- min xk.whi (xa.whi - shift);
    if xk.wlo > xk.whi then
      fail "merging %d into %d leaves no feasible port offset" absorb keep;
    (* Re-home every edge of [absorb], then release its record: on
       data-center-scale runs nearly every vertex is a replicate that
       merges away, and only canonical vertices need one. *)
    for idx = 0 to Array.length xa.slots - 1 do
      let i = idx - xa.s_base in
      rehome t ~keep ~absorb xk i (i + shift) xa.slots.(idx)
    done;
    t.verts.(absorb) <- t.released;
    t.uf_parent.(absorb) <- keep;
    t.uf_shift.(absorb) <- shift;
    t.n_verts_live <- t.n_verts_live - 1;
    if Why.on () then begin
      let did =
        match why with
        | Some f -> f ()
        | None ->
          Why.deduce ~rule:"merge"
            ~fact:
              (lazy (Printf.sprintf "v%d = v%d (shift %d)" keep absorb shift))
            ()
      in
      Why.note_merge ~kept:keep ~absorbed:absorb ~shift ~did
    end;
    if San_obs.Obs.on () then begin
      San_obs.Obs.count "mapper.merges";
      San_obs.Obs.emit
        (San_obs.Trace.Replicate_merged { kept = keep; absorbed = absorb })
    end;
    Queue.add keep t.mergelist
  end

let kill_edge t e =
  if not e.e_dead then begin
    e.e_dead <- true;
    t.n_edges_live <- t.n_edges_live - 1;
    Why.note_edge_dead ~eid:e.eid
  end

(* Do [e] and [f] join the same two slots — the same actual wire
   found twice? *)
let same_wire e f =
  (e.ea = f.ea && e.ia = f.ia && e.eb = f.eb && e.ib = f.ib)
  || (e.ea = f.eb && e.ia = f.ib && e.eb = f.ea && e.ib = f.ia)

let rec wire_among e = function
  | [] -> false
  | f :: rest -> same_wire e f || wire_among e rest

(* A clean slot holds no dead edge and no wire twice: deduplication
   would hand it back unchanged, so the common case compares edges in
   place and allocates nothing. *)
let rec clean = function
  | [] -> true
  | e :: rest -> (not e.e_dead) && (not (wire_among e rest)) && clean rest

(* Drop dead edges and kill every later copy of a wire, keeping the
   survivors in slot order. *)
let rec dedup t kept = function
  | [] -> List.rev kept
  | e :: rest ->
    if e.e_dead then dedup t kept rest
    else if wire_among e kept then begin
      kill_edge t e;
      dedup t kept rest
    end
    else dedup t (e :: kept) rest

(* The far end of [e] seen from its end at slot [(c, i)]. *)
let far_vertex e c i =
  if e.ea = c && e.ia = i then e.eb
  else if e.eb = c && e.ib = i then e.ea
  else fail "edge %d not anchored at slot (%d,%d)" e.eid c i

let far_slot e c i = if e.ea = c && e.ia = i then e.ib else e.ia

(* The two edges at slot [(c, i)] join their far ends by one cable, so
   those far ends are replicates, aligned so that slot j2 becomes j1. *)
let merge_far_ends t c i e1 e2 =
  let w1 = far_vertex e1 c i and w2 = far_vertex e2 c i in
  let j1 = far_slot e1 c i and j2 = far_slot e2 c i in
  let why =
    if Why.on () then
      Some
        (fun () ->
          Why.deduce ~rule:"d1_slot_conflict"
            ~fact:
              (lazy (Printf.sprintf
                 "v%d = v%d (shift %d): slot (%d,%d) carries both cables"
                 w1 w2 (j1 - j2) c i))
            ~deps:
              (List.filter_map (fun e -> Why.edge_did ~eid:e.eid) [ e1; e2 ])
            ())
    else None
  in
  do_merge ?why t ~keep:w1 ~absorb:w2 ~shift:(j1 - j2)

(* Process one canonical vertex: deduplicate its slots and fire the
   first slot-conflict deduction found, if any.  Returns true if a
   merge fired (the caller re-queues and restarts). *)
let process_vertex t c =
  let xc = vertex t c in
  let slots = xc.slots in
  let fired = ref false in
  let idx = ref 0 in
  while (not !fired) && !idx < Array.length slots do
    let l = slots.(!idx) in
    let l =
      if clean l then l
      else begin
        let kept = dedup t [] l in
        slots.(!idx) <- kept;
        kept
      end
    in
    (match l with
    | e1 :: e2 :: _ ->
      merge_far_ends t c (!idx - xc.s_base) e1 e2;
      fired := true
    | [ _ ] | [] -> ());
    incr idx
  done;
  !fired

let run_merge_loop t =
  while not (Queue.is_empty t.mergelist) do
    let c = root t (Queue.take t.mergelist) in
    let xc = vertex t c in
    if not xc.dead then
      if process_vertex t c then Queue.add c t.mergelist
  done

let create ~mapper_name ~radix =
  if radix < 2 then invalid_arg "Model.create: radix too small";
  let t =
    {
      m_radix = radix;
      verts = [||];
      nverts = 0;
      released = { (record ~radix (-1) Vswitch) with dead = true };
      uf_parent = [||];
      uf_shift = [||];
      v_node = [||];
      pf_up = Array.make 16 0;
      pf_turn = Array.make 16 0;
      pf_len = Array.make 16 0;
      nnodes = 1;
      host_names = Hashtbl.create 64;
      mergelist = Queue.create ();
      edges = [||];
      nedges = 0;
      n_edges_created = 0;
      n_edges_live = 0;
      n_verts_live = 0;
      m_root_host = 0;
      m_root_switch = 1;
    }
  in
  let h = alloc t (Vhost mapper_name) 0 in
  let s = alloc t Vswitch 0 in
  assert (h = 0 && s = 1);
  Hashtbl.replace t.host_names mapper_name h;
  (* The mapper's single cable necessarily leads to a switch; the
     probe enters that switch at its frame's slot 0. *)
  add_edge t (s, 0) (h, 0);
  if Why.on () then begin
    Why.reset ();
    let dh =
      Why.record_axiom
        ~fact:
          (lazy (Printf.sprintf "v%d is the mapper host %s itself" h mapper_name))
    in
    Why.note_vertex ~vid:h ~kind:(`Host mapper_name) ~did:dh;
    let ds =
      Why.record_axiom
        ~fact:
          (lazy (Printf.sprintf
             "v%d: a switch assumed behind the mapper's single cable" s))
    in
    Why.note_vertex ~vid:s ~kind:`Switch ~did:ds;
    let de =
      Why.record_axiom
        ~fact:
          (lazy (Printf.sprintf "cable %s.0 -- v%d slot 0 (the mapper's own cable)"
             mapper_name s))
    in
    Why.note_edge ~eid:0 ~a:s ~sa:0 ~b:h ~sb:0 ~did:de
  end;
  t

let add_switch_vertex t ~parent ~turn ~probe =
  let p = root t parent in
  let s = shift_to t parent p in
  let child = alloc t Vswitch (probe_node t ~parent ~turn probe) in
  add_edge t (p, turn + s) (child, 0);
  if Why.on () then begin
    let did =
      Why.deduce ~rule:"switch_reached"
        ~fact:
          (lazy (Printf.sprintf "a switch (v%d) answers behind turn %d of v%d" child
             turn p))
        ~probes:(Option.to_list (Why.last_probe ()))
        ()
    in
    Why.note_vertex ~vid:child ~kind:`Switch ~did;
    Why.note_edge
      ~eid:(t.n_edges_created - 1)
      ~a:p ~sa:(turn + s) ~b:child ~sb:0 ~did
  end;
  run_merge_loop t;
  child

let add_host_vertex t ~parent ~turn ~probe ~name =
  let p = root t parent in
  let s = shift_to t parent p in
  let child = alloc t (Vhost name) (probe_node t ~parent ~turn probe) in
  add_edge t (p, turn + s) (child, 0);
  if Why.on () then begin
    let did =
      Why.deduce ~rule:"host_reached"
        ~fact:
          (lazy (Printf.sprintf "host %s (v%d) answers behind turn %d of v%d" name
             child turn p))
        ~probes:(Option.to_list (Why.last_probe ()))
        ()
    in
    Why.note_vertex ~vid:child ~kind:(`Host name) ~did;
    Why.note_edge
      ~eid:(t.n_edges_created - 1)
      ~a:p ~sa:(turn + s) ~b:child ~sb:0 ~did
  end;
  (match Hashtbl.find_opt t.host_names name with
  | None -> Hashtbl.replace t.host_names name child
  | Some old ->
    let oc = root t old in
    let cc = root t child in
    if oc <> cc then begin
      let why =
        if Why.on () then
          Some
            (fun () ->
              Why.deduce ~rule:"d2_same_host"
                ~fact:
                  (lazy (Printf.sprintf "v%d = v%d: both are host %s" oc cc name))
                ~deps:
                  (List.filter_map (fun v -> Why.birth_of ~vid:v) [ old; child ])
                ())
        else None
      in
      do_merge ?why t ~keep:oc ~absorb:cc ~shift:0
    end);
  run_merge_loop t;
  child

let kind t v = (vertex t (canonical t v)).v_kind

let vnode t v =
  if v < 0 || v >= t.nverts then fail "no vertex %d" v;
  t.v_node.(v)

let probe_length t v = t.pf_len.(vnode t v)

let rec probe_chain t n acc =
  if n = 0 then acc else probe_chain t t.pf_up.(n) (t.pf_turn.(n) :: acc)

let probe_string t v = probe_chain t (vnode t v) []
let child_probe t v ~turn = probe_chain t (vnode t v) [ turn ]
let is_explored t v = (vertex t (canonical t v)).explored
let set_explored t v = (vertex t (canonical t v)).explored <- true
let is_live t v = not (vertex t (canonical t v)).dead

let slot_occupied t v i = has_live (slot_get (vertex t (root t v)) i)

let turn_slot t v turn = turn + frame_shift t v

type turn_state = Wired | Open | Beyond_window

let admits t xc slot = xc.wlo + slot <= t.m_radix - 1 && xc.whi + slot >= 0

(* Every edge narrowed the window to offsets under which its slot is a
   real port, so a wired slot is never beyond the window. *)
let turn_state t v ~turn =
  let c = root t v in
  let xc = t.verts.(c) in
  let slot = turn + shift_to t v c in
  if has_live (slot_get xc slot) then Wired
  else if admits t xc slot then Open
  else Beyond_window

let neighbor_end_via t v ~slot =
  let c = root t v in
  let xc = vertex t c in
  match List.find_opt (fun e -> not e.e_dead) (slot_get xc slot) with
  | None -> None
  | Some e ->
    let far, fslot =
      if e.ea = c && e.ia = slot then (e.eb, e.ib) else (e.ea, e.ia)
    in
    (* Express the far slot in [far]'s own vid frame so it stays
       meaningful if the class is re-framed by later merges. *)
    Some (far, fslot - frame_shift t far)

let neighbor_via t v ~turn =
  Option.map fst (neighbor_end_via t v ~slot:(turn_slot t v turn))

let offset_window t v =
  let xc = vertex t (root t v) in
  (xc.wlo, xc.whi)

let window_admits t v ~slot = admits t (vertex t (root t v)) slot

let incident_edges t c =
  let xc = vertex t (canonical t c) in
  let tbl = Hashtbl.create 8 in
  Array.iter
    (List.iter (fun e -> if not e.e_dead then Hashtbl.replace tbl e.eid e))
    xc.slots;
  Hashtbl.fold (fun _ e acc -> e :: acc) tbl []

let degree t v = List.length (incident_edges t v)

let kill_root_switch t =
  let c = canonical t t.m_root_switch in
  let xc = vertex t c in
  if not xc.dead then begin
    List.iter (kill_edge t) (incident_edges t c);
    xc.dead <- true;
    t.n_verts_live <- t.n_verts_live - 1;
    if Why.on () then begin
      let did =
        Why.deduce ~rule:"root_retraction"
          ~fact:
            (lazy (Printf.sprintf
               "assumed root switch v%d retracted: the turn-0 self-probe \
                found no switch on the mapper's cable" c))
          ~probes:(Option.to_list (Why.last_probe ()))
          ()
      in
      Why.note_prune ~vid:c ~did;
      Why.note_root_retraction ~did
    end
  end

(* PRUNE removes Theorem 1's F: every region that one switch-switch
   cable separates from all hosts.  The pseudo-code's degree<=1
   formulation only removes hostless *trees*; separation also covers
   hostless cycles and self-cabled pendants behind a bridge, and — the
   other direction — keeps a pendant switch whose single cable leads
   to a host (a mapper isolated with its switch after faults).

   The model is a multigraph on canonical vids (edge endpoints are kept
   canonical by [do_merge]), so Dense.separation applies directly: one
   O(V+E) pass instead of a BFS per cable, which is what lets PRUNE run
   on 10k-host fabrics. [whole_components] captures the hostless-cycle
   case: there any switch-switch cable, bridge or not, separates the
   entire component from all hosts. *)
let prune t =
  let live = live_edge_list t in
  if live <> [] then begin
    let earr = Array.of_list live in
    let edge_u = Array.map (fun e -> e.ea) earr in
    let edge_v = Array.map (fun e -> e.eb) earr in
    let is_switch v =
      match (vertex t v).v_kind with Vswitch -> true | Vhost _ -> false
    in
    let in_f, sep =
      Dense.separation ~nodes:t.nverts ~edge_u ~edge_v
        ~is_host:(fun v -> not (is_switch v))
        ~candidate:(fun id ->
          let e = earr.(id) in
          e.ea <> e.eb && is_switch e.ea && is_switch e.eb)
        ~whole_components:true
    in
    (* One ledger entry per condemned region, citing the separating
       cable, as the per-edge formulation produced. *)
    let groups = Hashtbl.create 8 in
    for v = t.nverts - 1 downto 0 do
      if in_f.(v) && t.uf_parent.(v) = v && not t.verts.(v).dead then
        Hashtbl.replace groups sep.(v)
          (v :: Option.value ~default:[] (Hashtbl.find_opt groups sep.(v)))
    done;
    let keys = List.sort compare (Hashtbl.fold (fun k _ a -> k :: a) groups []) in
    List.iter
      (fun key ->
        let vids = Hashtbl.find groups key in
        let did =
          if Why.on () then
            Why.deduce ~rule:"prune"
              ~fact:
                (lazy (Printf.sprintf
                   "region {%s} hangs off one switch-switch cable with \
                    no host inside: separated from N-F (Theorem 1)"
                   (String.concat "," (List.map (Printf.sprintf "v%d") vids))))
              ~deps:(Option.to_list (Why.edge_did ~eid:earr.(key).eid))
              ()
          else -1
        in
        List.iter
          (fun v ->
            let xv = vertex t v in
            if not xv.dead then begin
              List.iter (kill_edge t) (incident_edges t v);
              xv.dead <- true;
              t.n_verts_live <- t.n_verts_live - 1;
              Why.note_prune ~vid:v ~did
            end)
          vids)
      keys
  end

let known_hosts t = Hashtbl.length t.host_names
let created_vertices t = t.nverts
let live_vertices t = t.n_verts_live
let created_edges t = t.n_edges_created
let live_edges t = t.n_edges_live

let live_canonicals t =
  let acc = ref [] in
  for v = t.nverts - 1 downto 0 do
    if t.uf_parent.(v) = v && not t.verts.(v).dead then acc := v :: !acc
  done;
  !acc

let to_graph t =
  let g = Graph.create ~radix:t.m_radix () in
  let node_of = Hashtbl.create 64 in
  let base_of = Hashtbl.create 64 in
  List.iter
    (fun v ->
      let xv = vertex t v in
      let used_slots = ref [] in
      (* Every slot must have settled to at most one edge. *)
      Array.iteri
        (fun idx l ->
          if two_live l then
            fail "unresolved replicates at slot (%d,%d): explore deeper" v
              (idx - xv.s_base)
          else if has_live l then
            used_slots := (idx - xv.s_base) :: !used_slots)
        xv.slots;
      let used_slots = !used_slots in
      let node =
        match xv.v_kind with
        | Vhost name ->
          if used_slots <> [ 0 ] && used_slots <> [] then
            fail "host %s uses slots other than 0" name;
          Graph.add_host g ~name
        | Vswitch ->
          (match used_slots with
          | [] -> ()
          | _ ->
            let lo = List.fold_left min max_int used_slots in
            let hi = List.fold_left max min_int used_slots in
            if hi - lo > t.m_radix - 1 then
              fail "switch vertex %d: slot span %d..%d exceeds radix" v lo hi;
            Hashtbl.replace base_of v lo);
          Graph.add_switch g ~name:(Printf.sprintf "m%d" v) ()
      in
      Hashtbl.replace node_of v node)
    (live_canonicals t);
  let base v = Option.value ~default:0 (Hashtbl.find_opt base_of v) in
  List.iter
    (fun e ->
      let na = Hashtbl.find node_of e.ea and nb = Hashtbl.find node_of e.eb in
      Graph.connect g (na, e.ia - base e.ea) (nb, e.ib - base e.eb))
    (live_edge_list t);
  g

let check_invariants t =
  try
    for v = 0 to t.nverts - 1 do
      if (t.uf_parent.(v) = v) = (t.verts.(v) == t.released) then
        fail "vertex %d: record kept or released out of step with its merge" v
    done;
    List.iter
      (fun v ->
        let xv = vertex t v in
        if xv.wlo > xv.whi then fail "vertex %d: empty offset window" v;
        Array.iteri
          (fun idx l ->
            let i = idx - xv.s_base in
            List.iter
              (fun e ->
                if not e.e_dead then begin
                  let anchored =
                    (e.ea = v && e.ia = i) || (e.eb = v && e.ib = i)
                  in
                  if not anchored then
                    fail "edge %d listed at slot (%d,%d) but anchored elsewhere"
                      e.eid v i
                end)
              l)
          xv.slots)
      (live_canonicals t);
    let live = live_edge_list t in
    List.iter
      (fun e ->
        let check_end (v, i) =
          if t.uf_parent.(v) <> v then
            fail "edge %d endpoint %d not canonical" e.eid v;
          let xv = vertex t v in
          if xv.dead then fail "edge %d endpoint %d is dead" e.eid v;
          if not (List.memq e (slot_get xv i)) then
            fail "edge %d missing from slot (%d,%d)" e.eid v i
        in
        check_end (e.ea, e.ia);
        check_end (e.eb, e.ib))
      live;
    if List.length live <> t.n_edges_live then
      fail "live edge counter %d vs actual %d" t.n_edges_live
        (List.length live);
    if List.length (live_canonicals t) <> t.n_verts_live then
      fail "live vertex counter mismatch";
    Ok ()
  with Inconsistent m -> Error m
