(* Seeded generator of random well-formed .hpl sources.

   Three template families keep every emitted spec inside the
   guarantees the rest of the pipeline asserts on it:

   - every send rule carries a small 'sends < c' bound, so universes at
     the emitted depth stay enumerable;
   - symmetry generators are only emitted in families whose rules are
     invariant under them by construction (a lone 'process *' block
     with rotation-equivariant destinations for rotation; identical
     member blocks for member cycles), so Symmetry.is_automorphism
     holds for every generator we print;
   - divisors are literals, destinations stay in range, and guards use
     only declared names, so parse + elaborate + validate succeed.

   Randomness comes from a Random.State seeded with (seed, index) —
   same pair, same text — which is what lets CI replay a failure from
   the two integers alone. *)

let payloads = [| "msg"; "tok"; "ping"; "ack" |]
let tags = [| "fire"; "mark"; "decide" |]

let pick st a = a.(Random.State.int st (Array.length a))

(* a random extra conjunct for a guard, in history context *)
let garnish st =
  match Random.State.int st 5 with
  | 0 -> Printf.sprintf " && len < %d" (4 + Random.State.int st 3)
  | 1 -> Printf.sprintf " && recvs <= %d" (1 + Random.State.int st 2)
  | 2 -> Printf.sprintf " && !did(\"%s\")" (pick st tags)
  | 3 -> " && len % 2 >= 0"
  | _ -> ""

(* [k] makes the name unique within the spec: elaboration rejects
   duplicate atom names, and a 100-wide random pool collides within a
   50-spec run (birthday bound — seed 42 index 38 really did) *)
let atom_line st ~n ~k =
  let body =
    match Random.State.int st 4 with
    | 0 -> Printf.sprintf "sends(\"%s\") >= 1" (pick st payloads)
    | 1 -> "recvs > 0"
    | 2 -> Printf.sprintf "did(\"%s\")" (pick st tags)
    | _ -> Printf.sprintf "len <= %d" (2 + Random.State.int st 4)
  in
  if Random.State.bool st then
    Printf.sprintf "  atom a%d_%d at %d = %s\n" k (Random.State.int st 100)
      (Random.State.int st n) body
  else
    Printf.sprintf "  atom a%d_%d forall = %s\n" k (Random.State.int st 100)
      body

(* family 0: one 'process *' block, rotation-equivariant destinations *)
let ring_family st buf ~n =
  let payload = pick st payloads in
  let cap = 1 + Random.State.int st 2 in
  Buffer.add_string buf "  process * {\n";
  Buffer.add_string buf
    (Printf.sprintf "    when sends < %d%s => send \"%s\" to (me + 1) %% n\n"
       cap (garnish st) payload);
  Buffer.add_string buf
    (Printf.sprintf "    when recvs < %d => recv\n" (1 + Random.State.int st 2));
  if Random.State.bool st then
    Buffer.add_string buf
      (Printf.sprintf "    when recvs >= 1 && !did(\"%s\") => do \"%s\"\n"
         tags.(0) tags.(0));
  Buffer.add_string buf "  }\n";
  Buffer.add_string buf "  symmetry rotation\n";
  ignore n

(* family 1: a collector plus identical members — quorum-shaped, so the
   member cycle is automorphic. (A hub that *sends* to members in pid
   order, as [Protocol.star_spec] does, would distinguish them, so this
   family never addresses a member from process 0.) *)
let star_family st buf ~n =
  let rep = pick st payloads in
  let q = 1 + Random.State.int st (n - 1) in
  let votes = 1 + Random.State.int st 2 in
  Buffer.add_string buf "  process 0 {\n";
  Buffer.add_string buf
    (Printf.sprintf
       "    when !did(\"%s\") && recvs >= %d => do \"%s\"\n" tags.(2) q
       tags.(2));
  Buffer.add_string buf
    (Printf.sprintf
       "    when !did(\"%s\") && recvs < %d => recv\n" tags.(2) q);
  Buffer.add_string buf "  }\n";
  Buffer.add_string buf "  process * {\n";
  Buffer.add_string buf
    (Printf.sprintf "    when sends < %d => send \"%s\" to 0\n" votes rep);
  Buffer.add_string buf "  }\n";
  if n > 2 then Buffer.add_string buf "  symmetry cycle 1 .. n - 1\n"

(* family 2: asymmetric random rules, no symmetry *)
let random_family st buf ~n =
  let p0 = pick st payloads and p1 = pick st payloads in
  let dst = 1 + Random.State.int st (n - 1) in
  Buffer.add_string buf "  process 0 {\n";
  Buffer.add_string buf
    (Printf.sprintf "    when sends < %d%s => send \"%s\" to %d\n"
       (1 + Random.State.int st 2)
       (garnish st) p0 dst);
  Buffer.add_string buf
    (Printf.sprintf "    when recvs < %d => recv\n" (1 + Random.State.int st 2));
  if Random.State.bool st then
    Buffer.add_string buf
      (Printf.sprintf "    when recvs >= 1 && !did(\"%s\") => do \"%s\"\n"
         (pick st tags) (pick st tags));
  Buffer.add_string buf "  }\n";
  Buffer.add_string buf "  process * {\n";
  (match Random.State.int st 3 with
  | 0 -> Buffer.add_string buf "    when recvs < 2 => recv from 0\n"
  | 1 -> Buffer.add_string buf "    when recvs < 2 => recv\n"
  | _ ->
      Buffer.add_string buf
        (Printf.sprintf
           "    when recvs < 2 => recv, do \"%s\"\n" (pick st tags)));
  Buffer.add_string buf
    (Printf.sprintf
       "    when recvs >= 1 && sends < %d => send \"%s\" to 0\n"
       (1 + Random.State.int st 1)
       p1);
  Buffer.add_string buf "  }\n"

let spec_text ~seed ~index =
  let st = Random.State.make [| 0x48504c; seed; index |] in
  let family = Random.State.int st 3 in
  let n_lo = 2 + if family = 1 then 1 else 0 in
  let n = n_lo + Random.State.int st 2 in
  let depth = 4 + Random.State.int st 2 in
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "protocol \"fuzz-%d-%d\" {\n" seed index);
  Buffer.add_string buf
    (Printf.sprintf
       "  doc \"generated spec (seed %d, index %d, family %d)\"\n" seed index
       family);
  Buffer.add_string buf
    (Printf.sprintf "  param n = %d min %d max %d\n" n n_lo (n + 1));
  Buffer.add_string buf "  processes n\n";
  Buffer.add_string buf (Printf.sprintf "  depth %d\n" depth);
  (match family with
  | 0 -> ring_family st buf ~n
  | 1 -> star_family st buf ~n
  | _ -> random_family st buf ~n);
  for k = 1 to Random.State.int st 3 do
    Buffer.add_string buf (atom_line st ~n ~k)
  done;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
