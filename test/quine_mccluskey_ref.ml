(* The pre-rewrite Quine–McCluskey minimizer, kept as the oracle for
   [Nano_synth.Quine_mccluskey]: every round compares every pair of
   cubes. The library looks each cube's partners up by care mask and
   value instead, and must return the same primes in the same order and
   so the same covers. *)

module Cube = Nano_logic.Cube

module Cube_set = Set.Make (struct
  type t = Cube.t

  let compare = Cube.compare
end)

(* Iteratively merge distance-1 cube pairs; cubes that never merge are
   prime. *)
let prime_implicants ~arity ~on_set ~dc_set =
  let initial =
    List.sort_uniq compare (on_set @ dc_set)
    |> List.map (Cube.of_minterm ~arity)
  in
  let rec rounds current primes =
    if current = [] then primes
    else begin
      let arr = Array.of_list current in
      let n = Array.length arr in
      let merged_flag = Array.make n false in
      let next = ref Cube_set.empty in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          match Cube.merge_distance1 arr.(i) arr.(j) with
          | Some m ->
            merged_flag.(i) <- true;
            merged_flag.(j) <- true;
            next := Cube_set.add m !next
          | None -> ()
        done
      done;
      let new_primes = ref primes in
      Array.iteri
        (fun i c ->
          if not merged_flag.(i) then new_primes := Cube_set.add c !new_primes)
        arr;
      rounds (Cube_set.elements !next) !new_primes
    end
  in
  Cube_set.elements (rounds initial Cube_set.empty)

let minimize ~arity ~on_set ~dc_set =
  match on_set with
  | [] -> []
  | _ ->
    let primes = Array.of_list (prime_implicants ~arity ~on_set ~dc_set) in
    let on = Array.of_list (List.sort_uniq compare on_set) in
    let n_on = Array.length on in
    let n_primes = Array.length primes in
    (* covers.(p) = indices of ON minterms covered by prime p. *)
    let covers =
      Array.init n_primes (fun p ->
          let ms = ref [] in
          for m = n_on - 1 downto 0 do
            if Cube.covers primes.(p) on.(m) then ms := m :: !ms
          done;
          !ms)
    in
    let chosen = ref [] in
    let covered = Array.make n_on false in
    let choose p =
      chosen := primes.(p) :: !chosen;
      List.iter (fun m -> covered.(m) <- true) covers.(p)
    in
    (* Essential primes: minterms covered by exactly one prime. *)
    for m = 0 to n_on - 1 do
      let holders = ref [] in
      for p = 0 to n_primes - 1 do
        if List.mem m covers.(p) then holders := p :: !holders
      done;
      match !holders with
      | [ only ] when not covered.(m) -> choose only
      | _ -> ()
    done;
    (* Greedy completion: repeatedly take the prime covering the most
       uncovered minterms (ties broken toward fewer literals). *)
    let uncovered_count p =
      List.fold_left
        (fun acc m -> if covered.(m) then acc else acc + 1)
        0 covers.(p)
    in
    let rec complete () =
      if Array.exists (fun c -> not c) covered then begin
        let best = ref (-1) in
        let best_gain = ref 0 in
        let best_cost = ref max_int in
        for p = 0 to n_primes - 1 do
          let gain = uncovered_count p in
          let cost = Cube.literal_count primes.(p) in
          if gain > !best_gain || (gain = !best_gain && gain > 0 && cost < !best_cost)
          then begin
            best := p;
            best_gain := gain;
            best_cost := cost
          end
        done;
        assert (!best >= 0);
        choose !best;
        complete ()
      end
    in
    complete ();
    List.rev !chosen
