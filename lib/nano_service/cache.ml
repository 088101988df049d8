(* Doubly-linked recency list threaded through a hashtable. [head] is
   the most recently used entry, [tail] the eviction candidate. *)

type 'a entry = {
  key : string;
  mutable value : 'a;
  mutable prev : 'a entry option; (* towards head *)
  mutable next : 'a entry option; (* towards tail *)
}

type 'a t = {
  capacity : int;
  table : (string, 'a entry) Hashtbl.t;
  mutable head : 'a entry option;
  mutable tail : 'a entry option;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  size : int;
  capacity : int;
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Cache.create: negative capacity";
  {
    capacity;
    table = Hashtbl.create (max 16 capacity);
    head = None;
    tail = None;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let unlink (t : _ t) e =
  (match e.prev with
  | Some p -> p.next <- e.next
  | None -> t.head <- e.next);
  (match e.next with
  | Some n -> n.prev <- e.prev
  | None -> t.tail <- e.prev);
  e.prev <- None;
  e.next <- None

let push_front (t : _ t) e =
  e.prev <- None;
  e.next <- t.head;
  (match t.head with Some h -> h.prev <- Some e | None -> t.tail <- Some e);
  t.head <- Some e

let find (t : _ t) key =
  match Hashtbl.find_opt t.table key with
  | Some e ->
    t.hits <- t.hits + 1;
    unlink t e;
    push_front t e;
    Some e.value
  | None ->
    t.misses <- t.misses + 1;
    None

let evict_lru (t : _ t) =
  match t.tail with
  | None -> ()
  | Some e ->
    unlink t e;
    Hashtbl.remove t.table e.key;
    t.evictions <- t.evictions + 1

let add (t : _ t) key value =
  if t.capacity > 0 then
    match Hashtbl.find_opt t.table key with
    | Some e ->
      e.value <- value;
      unlink t e;
      push_front t e
    | None ->
      if Hashtbl.length t.table >= t.capacity then evict_lru t;
      let e = { key; value; prev = None; next = None } in
      Hashtbl.replace t.table key e;
      push_front t e

let mem (t : _ t) key = Hashtbl.mem t.table key

let peek (t : _ t) key =
  Option.map (fun e -> e.value) (Hashtbl.find_opt t.table key)

let stats (t : _ t) =
  {
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    size = Hashtbl.length t.table;
    capacity = t.capacity;
  }
