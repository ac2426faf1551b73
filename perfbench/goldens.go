package main

// portColdHashes records the port-cold output hash per generator seed,
// measured at the seed commit, so a change to the ported module shows as
// a failed operation. Seeds outside the table are checked only for
// agreement between the operations of one run.
var portColdHashes = map[int64]string{
	0:  "27575b6088c7f65f",
	1:  "ba35a8c7f5f614c8",
	2:  "3e4cf6893f0044eb",
	3:  "0527833b0ce2df28",
	4:  "26075c1aafe90f05",
	5:  "5dd3fa2893b05b99",
	6:  "7b9281ec0e493ad8",
	7:  "44fd2abc2933c8eb",
	8:  "baea5906f12b36c7",
	9:  "11a82ead7f0d579c",
	10: "522adde16477c64a",
	11: "4669aa5eef902534",
	12: "728a0b3a9d4f6705",
	13: "11f59337e211af24",
	14: "835e52db08d020a9",
	15: "966785a9f001b9d6",
	16: "970f9e01d4387f53",
	17: "612ed033d0a24027",
	18: "c616618e368fd43a",
	19: "877166b0a6859830",
	20: "f9bf04154870db12",
	21: "a0063b84965052bd",
	22: "8fc113f774f70b83",
	23: "45e82e8812dcecb7",
}
