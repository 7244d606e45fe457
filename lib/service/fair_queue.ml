(* Round-robin fair queue across client identities.

   Invariant: a client id is in [rotation] exactly once iff its per-client
   queue is non-empty.  [pop] serves the rotation head and re-appends it
   while it still has work, so after any t pops the per-client service
   counts differ by at most one among clients that still hold jobs — one
   flooding client cannot starve the others.  Everything is deterministic
   in the arrival order: no hashing order leaks (the Hashtbl is only ever
   probed by key), no clock, no randomness. *)

type 'a t = {
  queues : (string, 'a Queue.t) Hashtbl.t;
  rotation : string Queue.t;
  mutable total : int;
}

let create () =
  { queues = Hashtbl.create 16; rotation = Queue.create (); total = 0 }

let length t = t.total

let client_queue t client =
  match Hashtbl.find_opt t.queues client with
  | Some q -> q
  | None ->
    let q = Queue.create () in
    Hashtbl.replace t.queues client q;
    q

let enqueue_rotation_if_new t client q =
  (* Empty before this push <=> the client was not in rotation. *)
  if Queue.length q = 0 then Queue.push client t.rotation

let push t ~client v =
  let q = client_queue t client in
  enqueue_rotation_if_new t client q;
  Queue.push v q;
  t.total <- t.total + 1

let push_front t ~client v =
  let q = client_queue t client in
  enqueue_rotation_if_new t client q;
  (* Queue has no push-front; rebuild the (short) per-client queue.  A
     front push is the requeue path — a supervisor putting a victim job
     back at the head of its owner's line — so it is rare and the queue
     is admission-bounded. *)
  let rest = Queue.create () in
  Queue.transfer q rest;
  Queue.push v q;
  Queue.transfer rest q;
  t.total <- t.total + 1

let rec pop t =
  match Queue.take_opt t.rotation with
  | None -> None
  | Some client -> (
    match Hashtbl.find_opt t.queues client with
    | None -> pop t (* stale rotation entry; cannot happen, but total *)
    | Some q -> (
      match Queue.take_opt q with
      | None ->
        Hashtbl.remove t.queues client;
        pop t
      | Some v ->
        t.total <- t.total - 1;
        if Queue.is_empty q then Hashtbl.remove t.queues client
        else Queue.push client t.rotation;
        Some v))
