(* Tests for the relational model and tree-schema analysis. *)

module Value = Ghost_kernel.Value
module Column = Ghost_relation.Column
module Schema = Ghost_relation.Schema
module Predicate = Ghost_relation.Predicate
module Relation = Ghost_relation.Relation

let check = Alcotest.check

(* The Figure 3 medical schema. *)
let medical_schema () =
  let doctor =
    Schema.table ~name:"Doctor" ~key:"DocID"
      [
        Column.make "Name" (Value.T_char 20);
        Column.make "Speciality" (Value.T_char 20);
        Column.make "Zip" Value.T_int;
        Column.make "Country" (Value.T_char 16);
      ]
  in
  let patient =
    Schema.table ~name:"Patient" ~key:"PatID"
      [
        Column.make ~visibility:Column.Hidden "Name" (Value.T_char 20);
        Column.make "Age" Value.T_int;
        Column.make ~visibility:Column.Hidden "BodyMassIndex" Value.T_float;
        Column.make "Country" (Value.T_char 16);
      ]
  in
  let medicine =
    Schema.table ~name:"Medicine" ~key:"MedID"
      [
        Column.make "Name" (Value.T_char 20);
        Column.make "Effect" (Value.T_char 20);
        Column.make "Type" (Value.T_char 16);
      ]
  in
  let visit =
    Schema.table ~name:"Visit" ~key:"VisID"
      [
        Column.make "Date" Value.T_date;
        Column.make ~visibility:Column.Hidden "Purpose" (Value.T_char 20);
        Column.make ~visibility:Column.Hidden ~refs:"Doctor" "DocID" Value.T_int;
        Column.make ~visibility:Column.Hidden ~refs:"Patient" "PatID" Value.T_int;
      ]
  in
  let prescription =
    Schema.table ~name:"Prescription" ~key:"PreID"
      [
        Column.make ~visibility:Column.Hidden "Quantity" Value.T_int;
        Column.make "Frequency" Value.T_int;
        Column.make ~visibility:Column.Hidden "WhenWritten" Value.T_date;
        Column.make ~visibility:Column.Hidden ~refs:"Medicine" "MedID" Value.T_int;
        Column.make ~visibility:Column.Hidden ~refs:"Visit" "VisID" Value.T_int;
      ]
  in
  Schema.create [ doctor; patient; medicine; visit; prescription ]

let test_column_validation () =
  Alcotest.check_raises "fk must be int"
    (Invalid_argument "Column.make: a foreign key must be an INTEGER column") (fun () ->
      ignore (Column.make ~refs:"T" "x" Value.T_date))

let test_tree_structure () =
  let s = medical_schema () in
  check Alcotest.string "root" "Prescription" (Schema.root s).Schema.name;
  check Alcotest.(list string) "climb path from Doctor"
    [ "Doctor"; "Visit"; "Prescription" ]
    (Schema.climb_path s "Doctor");
  check Alcotest.(list string) "subtree of Visit"
    [ "Visit"; "Doctor"; "Patient" ]
    (Schema.subtree s "Visit");
  check Alcotest.int "depth" 2 (Schema.depth s "Patient");
  check Alcotest.(option (pair string string)) "parent of Visit"
    (Some ("Prescription", "VisID"))
    (Schema.parent s "Visit");
  check Alcotest.(option (pair string string)) "root has no parent" None
    (Schema.parent s "Prescription")

let test_subtree_root () =
  let s = medical_schema () in
  check Alcotest.string "doctor+patient -> Visit" "Visit"
    (Schema.subtree_root s [ "Doctor"; "Patient" ]);
  check Alcotest.string "medicine+visit -> Prescription" "Prescription"
    (Schema.subtree_root s [ "Medicine"; "Visit" ]);
  check Alcotest.string "single table" "Doctor" (Schema.subtree_root s [ "Doctor" ]);
  check Alcotest.string "ancestor dominates" "Visit"
    (Schema.subtree_root s [ "Visit"; "Doctor" ])

let test_fk_path () =
  let s = medical_schema () in
  check Alcotest.(list string) "prescription -> doctor"
    [ "VisID"; "DocID" ]
    (Schema.fk_path s ~from_root:"Prescription" "Doctor");
  check Alcotest.(list string) "self" [] (Schema.fk_path s ~from_root:"Visit" "Visit")

let test_not_a_tree_detection () =
  let orphan =
    Schema.table ~name:"A" ~key:"AID" [ Column.make "x" Value.T_int ]
  in
  let other = Schema.table ~name:"B" ~key:"BID" [ Column.make "y" Value.T_int ] in
  (try
     ignore (Schema.create [ orphan; other ]);
     Alcotest.fail "expected Not_a_tree (two roots)"
   with Schema.Not_a_tree _ -> ());
  let dangling =
    Schema.table ~name:"C" ~key:"CID" [ Column.make ~refs:"Nowhere" "fk" Value.T_int ]
  in
  (try
     ignore (Schema.create [ dangling ]);
     Alcotest.fail "expected Not_a_tree (unknown ref)"
   with Schema.Not_a_tree _ -> ())

let test_double_reference_rejected () =
  let leaf = Schema.table ~name:"Leaf" ~key:"LID" [] in
  let p1 =
    Schema.table ~name:"P1" ~key:"P1ID" [ Column.make ~refs:"Leaf" "fk" Value.T_int ]
  in
  let p2 =
    Schema.table ~name:"P2" ~key:"P2ID"
      [
        Column.make ~refs:"Leaf" "fk" Value.T_int;
        Column.make ~refs:"P1" "fk2" Value.T_int;
      ]
  in
  try
    ignore (Schema.create [ leaf; p1; p2 ]);
    Alcotest.fail "expected Not_a_tree (two parents)"
  with Schema.Not_a_tree _ -> ()

let test_column_index_layout () =
  let s = medical_schema () in
  let visit = Schema.find_table s "Visit" in
  check Alcotest.int "key first" 0 (Schema.column_index visit "VisID");
  check Alcotest.int "Date" 1 (Schema.column_index visit "Date");
  check Alcotest.int "arity" 5 (Schema.arity visit)

let test_predicate_eval () =
  let open Predicate in
  check Alcotest.bool "eq" true (eval (Eq (Value.Int 3)) (Value.Int 3));
  check Alcotest.bool "neq" false (eval (Ne (Value.Int 3)) (Value.Int 3));
  check Alcotest.bool "between incl" true
    (eval (Between (Value.Int 1, Value.Int 3)) (Value.Int 3));
  check Alcotest.bool "in" true
    (eval (In [ Value.Str "a"; Value.Str "b" ]) (Value.Str "b"));
  check Alcotest.bool "null never matches" false (eval (Eq Value.Null) Value.Null);
  check Alcotest.bool "str padding" true
    (eval (Eq (Value.Str "abc")) (Value.Str "abc\000"))

let small_relation () =
  let t =
    Schema.table ~name:"T" ~key:"ID"
      [ Column.make "v" Value.T_int; Column.make "s" (Value.T_char 8) ]
  in
  Relation.create t
    [
      [| Value.Int 1; Value.Int 10; Value.Str "a" |];
      [| Value.Int 2; Value.Int 20; Value.Str "b" |];
      [| Value.Int 3; Value.Int 20; Value.Str "c" |];
    ]

let test_relation_basics () =
  let r = small_relation () in
  check Alcotest.int "cardinality" 3 (Relation.cardinality r);
  (match Relation.find r 2 with
   | Some row ->
     check Alcotest.bool "value" true (Value.equal (Value.Int 20) (Relation.value r row "v"))
   | None -> Alcotest.fail "key 2 not found");
  check Alcotest.(array int) "select_ids" [| 2; 3 |]
    (Relation.select_ids r (Predicate.Eq (Value.Int 20)) "v")

let test_relation_validation () =
  let t = Schema.table ~name:"T" ~key:"ID" [ Column.make "v" Value.T_int ] in
  (try
     ignore (Relation.create t [ [| Value.Int 1 |] ]);
     Alcotest.fail "expected arity error"
   with Invalid_argument _ -> ());
  (try
     ignore
       (Relation.create t
          [ [| Value.Int 1; Value.Int 1 |]; [| Value.Int 1; Value.Int 2 |] ]);
     Alcotest.fail "expected duplicate key error"
   with Invalid_argument _ -> ());
  try
    ignore (Relation.create t [ [| Value.Int 1; Value.Str "no" |] ]);
    Alcotest.fail "expected type error"
  with Invalid_argument _ -> ()

(* In-place writes validate only the new rows, with create's checks,
   and keep row order; a failing batch leaves the relation as it was. *)
let test_relation_append_remove () =
  let t = Schema.table ~name:"T" ~key:"ID" [ Column.make "v" Value.T_int ] in
  let row k = [| Value.Int k; Value.Int (10 * k) |] in
  let r = Relation.create t [ row 1; row 2 ] in
  let keys () = Array.to_list (Array.map (Relation.key_of r) (Relation.tuples r)) in
  Relation.append r [ row 5; row 3 ];
  check Alcotest.(list int) "appended in order" [ 1; 2; 5; 3 ] (keys ());
  let rejects what rows =
    match Relation.append r rows with
    | () -> Alcotest.failf "expected %s error" what
    | exception Invalid_argument _ ->
      check Alcotest.(list int) (what ^ ": nothing applied") [ 1; 2; 5; 3 ] (keys ());
      check Alcotest.bool (what ^ ": no stray key") true (Relation.find r 7 = None)
  in
  rejects "duplicate" [ row 7; row 2 ];
  rejects "in-batch duplicate" [ row 7; row 7 ];
  rejects "arity" [ row 7; [| Value.Int 8 |] ];
  rejects "type" [ row 7; [| Value.Int 8; Value.Str "no" |] ];
  rejects "key" [ row 7; [| Value.Str "k"; Value.Int 1 |] ];
  Relation.remove r [ 2; 9; 3 ];
  check Alcotest.(list int) "removed, order kept" [ 1; 5 ] (keys ());
  check Alcotest.bool "removed key gone" true (Relation.find r 2 = None);
  Relation.append r [ row 2 ];
  check Alcotest.(list int) "a removed key can return" [ 1; 5; 2 ] (keys ())

let suite = [
  Alcotest.test_case "column validation" `Quick test_column_validation;
  Alcotest.test_case "tree structure" `Quick test_tree_structure;
  Alcotest.test_case "subtree root (LCA)" `Quick test_subtree_root;
  Alcotest.test_case "fk path" `Quick test_fk_path;
  Alcotest.test_case "not-a-tree detection" `Quick test_not_a_tree_detection;
  Alcotest.test_case "double reference rejected" `Quick test_double_reference_rejected;
  Alcotest.test_case "column index layout" `Quick test_column_index_layout;
  Alcotest.test_case "predicate eval" `Quick test_predicate_eval;
  Alcotest.test_case "relation basics" `Quick test_relation_basics;
  Alcotest.test_case "relation validation" `Quick test_relation_validation;
  Alcotest.test_case "relation append and remove" `Quick test_relation_append_remove;
]
