type bound = Max of float | Min of float | Sum_max of float * float

type rule = { line : int; glob : string; bound : bound }

exception Parse_error of int * string

let parse_line line text =
  let fail msg = raise (Parse_error (line, msg)) in
  let num s =
    match float_of_string_opt s with
    | Some v when Float.is_finite v -> v
    | _ -> fail (Printf.sprintf "expected a number, got %S" s)
  in
  let words =
    String.map (fun c -> if c = '\t' then ' ' else c) text
    |> String.split_on_char ' '
    |> List.filter (( <> ) "")
  in
  match words with
  | [] -> None
  | [ glob; "max"; v ] -> Some { line; glob; bound = Max (num v) }
  | [ glob; "min"; v ] -> Some { line; glob; bound = Min (num v) }
  | [ glob; "sum-max"; f; floor ] ->
      Some { line; glob; bound = Sum_max (num f, num floor) }
  | _ -> fail "expected GLOB max V, GLOB min V or GLOB sum-max F FLOOR"

let parse text =
  String.split_on_char '\n' text
  |> List.mapi (fun i l ->
         let l =
           match String.index_opt l '#' with
           | Some j -> String.sub l 0 j
           | None -> l
         in
         parse_line (i + 1) l)
  |> List.filter_map Fun.id

let load path = parse (In_channel.with_open_text path In_channel.input_all)

let glob_match glob key =
  let gl = String.length glob and kl = String.length key in
  let rec go g k =
    if g = gl then k = kl
    else if glob.[g] = '*' then go (g + 1) k || (k < kl && go g (k + 1))
    else k < kl && glob.[g] = key.[k] && go (g + 1) (k + 1)
  in
  go 0 0

type violation = { rule : rule; detail : string }

let describe r =
  match r.bound with
  | Max v -> Printf.sprintf "%s max %g" r.glob v
  | Min v -> Printf.sprintf "%s min %g" r.glob v
  | Sum_max (f, floor) -> Printf.sprintf "%s sum-max %g %g" r.glob f floor

(* Strings take part as NaN, which fails every bound. *)
let matching glob kvs =
  List.filter_map
    (fun (k, v) ->
      if not (glob_match glob k) then None
      else Some (k, match v with Diff.Num x -> x | Diff.Str _ -> Float.nan))
    kvs

let check rules ~baseline candidate =
  let sum = List.fold_left (fun acc (_, x) -> acc +. x) 0.0 in
  List.concat_map
    (fun rule ->
      let each ok =
        List.filter_map
          (fun (k, x) ->
            if ok x then None
            else Some { rule; detail = Printf.sprintf "%s = %g" k x })
      in
      match (matching rule.glob candidate, rule.bound) with
      | [], _ -> [ { rule; detail = "no key matches" } ]
      | kxs, Max v -> each (fun x -> x <= v) kxs
      | kxs, Min v -> each (fun x -> x >= v) kxs
      | kxs, Sum_max (f, floor) ->
          let base = sum (matching rule.glob baseline) in
          let budget = Float.max floor (f *. base) and total = sum kxs in
          if total <= budget then []
          else
            [
              {
                rule;
                detail =
                  Printf.sprintf
                    "sum %g over %d keys > budget %g (baseline sum %g)" total
                    (List.length kxs) budget base;
              };
            ])
    rules
