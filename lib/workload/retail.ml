module Value = Ghost_kernel.Value
module Date = Ghost_kernel.Date
module Rng = Ghost_kernel.Rng
module Zipf = Ghost_kernel.Zipf
module Schema = Ghost_relation.Schema
module Relation = Ghost_relation.Relation

type scale = {
  customers : int;
  products : int;
  purchases : int;
  lineitems : int;
  theta : float;
}

let tiny = { customers = 20; products = 30; purchases = 120; lineitems = 500; theta = 0.8 }

let small =
  { customers = 400; products = 600; purchases = 3_000; lineitems = 12_000; theta = 0.8 }

let ddl = {|
CREATE TABLE Customer (
  CustID INTEGER PRIMARY KEY,
  Name CHAR(24) HIDDEN,
  Segment CHAR(12),
  Region CHAR(12));

CREATE TABLE Product (
  ProdID INTEGER PRIMARY KEY,
  Name CHAR(24),
  Category CHAR(16),
  Cost FLOAT HIDDEN);

CREATE TABLE Purchase (
  PurID INTEGER PRIMARY KEY,
  Date DATE,
  Total FLOAT HIDDEN,
  CustID INTEGER REFERENCES Customer(CustID) HIDDEN);

CREATE TABLE LineItem (
  LineID INTEGER PRIMARY KEY,
  Quantity INTEGER,
  Discount FLOAT HIDDEN,
  PurID INTEGER REFERENCES Purchase(PurID) HIDDEN,
  ProdID INTEGER REFERENCES Product(ProdID) HIDDEN);
|}

let schema () = Ghost_sql.Bind.ddl_to_schema (Ghost_sql.Parser.parse_ddl ddl)

let segments = [| "consumer"; "corporate"; "public"; "smb" |]
let regions = [| "north"; "south"; "east"; "west"; "export" |]

let categories = [|
  "electronics"; "furniture"; "paper"; "appliances"; "tools"; "textiles";
  "chemicals"; "packaging";
|]

let date_lo = Date.of_ymd 2005 1 1
let date_hi = Date.of_ymd 2006 12 31

let generate scale =
  let rng = Rng.create 424242 in
  let z_cat = Zipf.create ~n:(Array.length categories) ~theta:scale.theta in
  let z_seg = Zipf.create ~n:(Array.length segments) ~theta:scale.theta in
  let zipf_pick z (values : string array) =
    values.((Zipf.sample z rng - 1) mod Array.length values)
  in
  let customers =
    List.init scale.customers (fun i ->
      [|
        Value.Int (i + 1);
        Value.Str (Printf.sprintf "Cust-%05d" (i + 1));
        Value.Str (zipf_pick z_seg segments);
        Value.Str regions.(Rng.int rng (Array.length regions));
      |])
  in
  let products =
    List.init scale.products (fun i ->
      [|
        Value.Int (i + 1);
        Value.Str (Printf.sprintf "Prod-%05d" (i + 1));
        Value.Str (zipf_pick z_cat categories);
        Value.Float (1.0 +. Rng.float rng 500.);
      |])
  in
  let purchases =
    List.init scale.purchases (fun i ->
      [|
        Value.Int (i + 1);
        Value.Date (Rng.int_in rng date_lo date_hi);
        Value.Float (10. +. Rng.float rng 5000.);
        Value.Int (1 + Rng.int rng scale.customers);
      |])
  in
  let lineitems =
    List.init scale.lineitems (fun i ->
      [|
        Value.Int (i + 1);
        Value.Int (Rng.int_in rng 1 20);
        Value.Float (Float.of_int (Rng.int rng 5) /. 10.);
        Value.Int (1 + Rng.int rng scale.purchases);
        Value.Int (1 + Rng.int rng scale.products);
      |])
  in
  [
    ("Customer", customers);
    ("Product", products);
    ("Purchase", purchases);
    ("LineItem", lineitems);
  ]

let queries = [
  ( "margin_exposure",
    (* which public catalog items moved with a heavy hidden discount *)
    {|SELECT Prod.Name, Li.Quantity, Li.Discount
FROM Product Prod, LineItem Li
WHERE Prod.Category = 'electronics' AND Li.Discount >= 0.3
  AND Li.ProdID = Prod.ProdID|} );
  ( "big_corporate_orders",
    {|SELECT Cust.Name, Pur.Total, Pur.Date
FROM Customer Cust, Purchase Pur, LineItem Li
WHERE Cust.Segment = 'corporate' AND Pur.Total > 4000.0
  AND Pur.Date > '2006-01-01'
  AND Li.PurID = Pur.PurID AND Pur.CustID = Cust.CustID|} );
  ( "region_volume",
    {|SELECT Cust.Region, COUNT(*), SUM(Li.Quantity)
FROM Customer Cust, Purchase Pur, LineItem Li
WHERE Li.PurID = Pur.PurID AND Pur.CustID = Cust.CustID
GROUP BY Cust.Region ORDER BY Cust.Region|} );
  ( "costly_products",
    {|SELECT Prod.ProdID, Prod.Cost
FROM Product Prod
WHERE Prod.Cost > 400.0 ORDER BY Prod.ProdID LIMIT 10|} );
]
