(* Mutants of valid text for the parser fuzz properties: one to three
   edits, each a byte overwritten, the text cut short, or a run of digits
   spliced in (next to a number that makes it overflow).  A parser at a
   trust boundary must answer every mutant with [Ok] or [Error]. *)

let edit text =
  let open QCheck2.Gen in
  let n = String.length text in
  let* i = int_bound n in
  let flip =
    if n = 0 then return text
    else map (fun c -> String.mapi (fun j c0 -> if j = min i (n - 1) then c else c0) text) char
  in
  let cut = return (String.sub text 0 i) in
  let splice =
    map
      (fun digits -> String.sub text 0 i ^ digits ^ String.sub text i (n - i))
      (string_size ~gen:(char_range '0' '9') (int_range 1 24))
  in
  oneof [ flip; cut; splice ]

let mutant text =
  let open QCheck2.Gen in
  let* k = int_range 1 3 in
  let rec go k text = if k = 0 then return text else edit text >>= go (k - 1) in
  go k text

(* [parse] answered [mutant] without raising. *)
let total ~what parse mutant =
  match parse mutant with
  | Ok _ | Error _ -> true
  | exception e -> QCheck2.Test.fail_reportf "%s raised %s on %S" what (Printexc.to_string e) mutant
