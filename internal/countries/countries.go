// Package countries embeds the paper's country reference (Appendix E: the
// 150 countries studied, with UN subregion and continent) and the published
// per-country centralization scores for all four infrastructure layers
// (Appendix F, Tables 5–8).
//
// The published scores serve two purposes in this toolkit: they calibrate
// the synthetic world generator (so the reproduced experiments share the
// paper's cross-country structure), and they are the paper-side values in
// every paper-vs-measured comparison recorded by the experiment harness.
package countries

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Layer identifies one of the four web-infrastructure layers the paper
// analyzes.
type Layer int

const (
	Hosting Layer = iota
	DNS
	CA
	TLD
)

// Layers lists every layer in presentation order.
var Layers = []Layer{Hosting, DNS, CA, TLD}

// String returns the layer's display name.
func (l Layer) String() string {
	switch l {
	case Hosting:
		return "hosting"
	case DNS:
		return "dns"
	case CA:
		return "ca"
	case TLD:
		return "tld"
	default:
		return fmt.Sprintf("Layer(%d)", int(l))
	}
}

// Country is one row of the paper's Appendix E reference plus the published
// centralization scores for each layer.
type Country struct {
	Code      string // ISO 3166-1 alpha-2
	Name      string
	Region    string // UN subregion, e.g. "South-eastern Asia"
	Continent string // AF, AS, EU, NA, OC, SA

	// PaperScore holds the published centralization score 𝒮 per layer
	// (Tables 5–8), indexed by Layer.
	PaperScore [4]float64
	// PaperRank holds the published 1-based centralization rank per layer
	// (rank 1 = most centralized), indexed by Layer.
	PaperRank [4]int
}

var (
	all    []Country
	byCode map[string]*Country
)

// All returns the 150 studied countries in ISO-code order. The returned
// slice is shared; callers must not modify it.
func All() []Country { return all }

// ByCode looks up a country by its ISO alpha-2 code. The second return is
// false when the code is not part of the study.
func ByCode(code string) (Country, bool) {
	c, ok := byCode[strings.ToUpper(code)]
	if !ok {
		return Country{}, false
	}
	return *c, true
}

// Codes returns all country codes in ISO-code order.
func Codes() []string {
	out := make([]string, len(all))
	for i, c := range all {
		out[i] = c.Code
	}
	return out
}

func init() {
	byCode = make(map[string]*Country)
	for _, line := range strings.Split(strings.TrimSpace(appendixE), "\n") {
		parts := strings.Split(line, "|")
		if len(parts) != 4 {
			panic(fmt.Sprintf("countries: malformed Appendix E row %q", line))
		}
		all = append(all, Country{
			Code:      parts[0],
			Name:      parts[1],
			Region:    parts[2],
			Continent: parts[3],
		})
	}
	if len(all) != 150 {
		panic(fmt.Sprintf("countries: expected 150 countries, embedded %d", len(all)))
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Code < all[j].Code })
	for i := range all {
		if _, dup := byCode[all[i].Code]; dup {
			panic("countries: duplicate code " + all[i].Code)
		}
		byCode[all[i].Code] = &all[i]
	}

	for layer, table := range map[Layer]string{
		Hosting: table5Hosting,
		DNS:     table6DNS,
		CA:      table7CA,
		TLD:     table8TLD,
	} {
		seen := 0
		for rank, line := range strings.Split(strings.TrimSpace(table), "\n") {
			fields := strings.Fields(line)
			if len(fields) != 2 {
				panic(fmt.Sprintf("countries: malformed score row %q", line))
			}
			c, ok := byCode[fields[0]]
			if !ok {
				panic("countries: score for unknown country " + fields[0])
			}
			s, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				panic(err)
			}
			c.PaperScore[layer] = s
			c.PaperRank[layer] = rank + 1
			seen++
		}
		if seen != 150 {
			panic(fmt.Sprintf("countries: layer %v has %d scores", layer, seen))
		}
	}
}

// appendixE is the paper's Table 4: code|name|UN subregion|continent.
const appendixE = `
AE|United Arab Emirates|Western Asia|AS
AF|Afghanistan|Southern Asia|AS
AL|Albania|Southern Europe|EU
AM|Armenia|Western Asia|AS
AO|Angola|Middle Africa|AF
AR|Argentina|South America|SA
AT|Austria|Western Europe|EU
AU|Australia|Oceania|OC
AZ|Azerbaijan|Western Asia|AS
BA|Bosnia and Herzegovina|Southern Europe|EU
BD|Bangladesh|Southern Asia|AS
BE|Belgium|Western Europe|EU
BF|Burkina Faso|Western Africa|AF
BG|Bulgaria|Eastern Europe|EU
BH|Bahrain|Western Asia|AS
BJ|Benin|Western Africa|AF
BN|Brunei Darussalam|South-eastern Asia|AS
BO|Bolivia|South America|SA
BR|Brazil|South America|SA
BW|Botswana|Southern Africa|AF
BY|Belarus|Eastern Europe|EU
CA|Canada|Northern America|NA
CD|Congo|Middle Africa|AF
CH|Switzerland|Western Europe|EU
CI|Côte d'Ivoire|Western Africa|AF
CL|Chile|South America|SA
CM|Cameroon|Middle Africa|AF
CO|Colombia|South America|SA
CR|Costa Rica|Central America|NA
CU|Cuba|Caribbean|NA
CY|Cyprus|Western Asia|AS
CZ|Czechia|Eastern Europe|EU
DE|Germany|Western Europe|EU
DK|Denmark|Northern Europe|EU
DO|Dominican Republic|Caribbean|NA
DZ|Algeria|Northern Africa|AF
EC|Ecuador|South America|SA
EE|Estonia|Northern Europe|EU
EG|Egypt|Northern Africa|AF
ES|Spain|Southern Europe|EU
ET|Ethiopia|Eastern Africa|AF
FI|Finland|Northern Europe|EU
FR|France|Western Europe|EU
GA|Gabon|Middle Africa|AF
GB|United Kingdom|Northern Europe|EU
GE|Georgia|Western Asia|AS
GH|Ghana|Western Africa|AF
GP|Guadeloupe|Caribbean|NA
GR|Greece|Southern Europe|EU
GT|Guatemala|Central America|NA
HK|Hong Kong|Eastern Asia|AS
HN|Honduras|Central America|NA
HR|Croatia|Southern Europe|EU
HT|Haiti|Caribbean|NA
HU|Hungary|Eastern Europe|EU
ID|Indonesia|South-eastern Asia|AS
IE|Ireland|Northern Europe|EU
IL|Israel|Western Asia|AS
IN|India|Southern Asia|AS
IQ|Iraq|Western Asia|AS
IR|Iran|Southern Asia|AS
IS|Iceland|Northern Europe|EU
IT|Italy|Southern Europe|EU
JM|Jamaica|Caribbean|NA
JO|Jordan|Western Asia|AS
JP|Japan|Eastern Asia|AS
KE|Kenya|Eastern Africa|AF
KG|Kyrgyzstan|Central Asia|AS
KH|Cambodia|South-eastern Asia|AS
KR|Korea|Eastern Asia|AS
KW|Kuwait|Western Asia|AS
KZ|Kazakhstan|Central Asia|AS
LA|Laos|South-eastern Asia|AS
LB|Lebanon|Western Asia|AS
LK|Sri Lanka|Southern Asia|AS
LT|Lithuania|Northern Europe|EU
LU|Luxembourg|Western Europe|EU
LV|Latvia|Northern Europe|EU
LY|Libya|Northern Africa|AF
MA|Morocco|Northern Africa|AF
MD|Moldova|Eastern Europe|EU
ME|Montenegro|Southern Europe|EU
MG|Madagascar|Eastern Africa|AF
MK|North Macedonia|Southern Europe|EU
ML|Mali|Western Africa|AF
MM|Myanmar|South-eastern Asia|AS
MN|Mongolia|Eastern Asia|AS
MO|Macao|Eastern Asia|AS
MQ|Martinique|Caribbean|NA
MT|Malta|Southern Europe|EU
MU|Mauritius|Eastern Africa|AF
MV|Maldives|Southern Asia|AS
MW|Malawi|Eastern Africa|AF
MX|Mexico|Central America|NA
MY|Malaysia|South-eastern Asia|AS
MZ|Mozambique|Eastern Africa|AF
NA|Namibia|Southern Africa|AF
NG|Nigeria|Western Africa|AF
NI|Nicaragua|Central America|NA
NL|Netherlands|Western Europe|EU
NO|Norway|Northern Europe|EU
NP|Nepal|Southern Asia|AS
NZ|New Zealand|Oceania|OC
OM|Oman|Western Asia|AS
PA|Panama|Central America|NA
PE|Peru|South America|SA
PG|Papua New Guinea|Oceania|OC
PH|Philippines|South-eastern Asia|AS
PK|Pakistan|Southern Asia|AS
PL|Poland|Eastern Europe|EU
PR|Puerto Rico|Caribbean|NA
PS|Palestine|Western Asia|AS
PT|Portugal|Southern Europe|EU
PY|Paraguay|South America|SA
QA|Qatar|Western Asia|AS
RE|Réunion|Eastern Africa|AF
RO|Romania|Eastern Europe|EU
RS|Serbia|Southern Europe|EU
RU|Russia|Eastern Europe|EU
RW|Rwanda|Eastern Africa|AF
SA|Saudi Arabia|Western Asia|AS
SD|Sudan|Northern Africa|AF
SE|Sweden|Northern Europe|EU
SG|Singapore|South-eastern Asia|AS
SI|Slovenia|Southern Europe|EU
SK|Slovakia|Eastern Europe|EU
SN|Senegal|Western Africa|AF
SO|Somalia|Eastern Africa|AF
SV|El Salvador|Central America|NA
SY|Syria|Western Asia|AS
TG|Togo|Western Africa|AF
TH|Thailand|South-eastern Asia|AS
TJ|Tajikistan|Central Asia|AS
TM|Turkmenistan|Central Asia|AS
TN|Tunisia|Northern Africa|AF
TR|Turkey|Western Asia|AS
TT|Trinidad and Tobago|Caribbean|NA
TW|Taiwan|Eastern Asia|AS
TZ|Tanzania|Eastern Africa|AF
UA|Ukraine|Eastern Europe|EU
UG|Uganda|Eastern Africa|AF
US|United States|Northern America|NA
UY|Uruguay|South America|SA
UZ|Uzbekistan|Central Asia|AS
VE|Venezuela|South America|SA
VN|Viet Nam|South-eastern Asia|AS
YE|Yemen|Western Asia|AS
ZA|South Africa|Southern Africa|AF
ZM|Zambia|Eastern Africa|AF
ZW|Zimbabwe|Eastern Africa|AF
`

// table5Hosting is the paper's Table 5 (hosting-provider centralization) in
// rank order: country code and published 𝒮.
const table5Hosting = `
TH 0.3548
ID 0.3258
MM 0.2641
LA 0.2526
IQ 0.2490
LY 0.2462
SY 0.2379
PK 0.2300
KH 0.2299
OM 0.2287
SA 0.2282
PS 0.2254
KW 0.2228
YE 0.2219
LB 0.2219
JO 0.2198
SD 0.2188
NP 0.2167
QA 0.2161
EG 0.2155
BH 0.2151
MY 0.2143
DZ 0.2126
SG 0.2003
SO 0.1991
BN 0.1983
BD 0.1971
AE 0.1937
PH 0.1934
MA 0.1852
TN 0.1848
MV 0.1823
AL 0.1806
ET 0.1764
TT 0.1755
PG 0.1755
LK 0.1749
AZ 0.1743
MU 0.1737
BW 0.1727
JM 0.1702
VN 0.1694
ZM 0.1653
AO 0.1623
GH 0.1608
MW 0.1603
IN 0.1600
ZA 0.1549
HN 0.1545
NI 0.1537
NZ 0.1524
MZ 0.1519
DO 0.1511
NA 0.1508
AU 0.1504
PA 0.1495
NG 0.1493
VE 0.1488
PR 0.1478
GB 0.1463
MT 0.1462
CU 0.1459
BR 0.1446
ZW 0.1443
KE 0.1431
CY 0.1418
UG 0.1406
IE 0.1398
TZ 0.1395
TR 0.1394
SV 0.1374
MN 0.1360
HT 0.1359
PY 0.1359
US 0.1358
GT 0.1340
BO 0.1335
IL 0.1320
GR 0.1319
MG 0.1318
CM 0.1310
CA 0.1308
CR 0.1287
LT 0.1286
RW 0.1275
SN 0.1273
TG 0.1266
CI 0.1247
BJ 0.1244
GA 0.1232
UA 0.1228
CD 0.1219
PE 0.1218
CL 0.1213
MX 0.1203
ML 0.1193
MK 0.1192
EC 0.1192
BG 0.1188
HK 0.1180
RE 0.1140
BA 0.1121
AM 0.1103
GE 0.1086
LU 0.1080
FR 0.1069
UY 0.1066
PT 0.1065
NL 0.1062
CO 0.1044
JP 0.1036
IS 0.1025
ME 0.1020
SE 0.1018
BF 0.1018
GP 0.1011
DK 0.1010
MQ 0.1007
UZ 0.0978
EE 0.0970
DE 0.0947
NO 0.0937
HR 0.0931
AR 0.0928
ES 0.0918
TW 0.0914
RS 0.0905
AF 0.0904
PL 0.0887
BE 0.0880
MD 0.0876
LV 0.0873
RO 0.0869
KG 0.0868
IT 0.0859
TJ 0.0844
CH 0.0842
MO 0.0839
KR 0.0825
AT 0.0816
FI 0.0815
KZ 0.0790
BY 0.0766
SI 0.0645
HU 0.0604
CZ 0.0561
RU 0.0554
SK 0.0497
TM 0.0461
IR 0.0411
`

// table6DNS is the paper's Table 6 (DNS-infrastructure centralization).
const table6DNS = `
ID 0.3757
TH 0.3374
IQ 0.2730
SY 0.2653
LY 0.2548
MM 0.2469
SD 0.2439
NP 0.2430
YE 0.2346
PS 0.2340
OM 0.2340
BD 0.2317
EG 0.2291
JO 0.2281
LA 0.2281
SA 0.2241
KW 0.2217
DZ 0.2159
SO 0.2157
QA 0.2140
LB 0.2139
BH 0.2136
KH 0.2136
PK 0.2115
MN 0.2115
LK 0.1956
LT 0.1919
PH 0.1900
BN 0.1892
AL 0.1855
AE 0.1827
MV 0.1817
TT 0.1805
TN 0.1803
ET 0.1796
AZ 0.1772
VN 0.1769
IN 0.1755
MA 0.1750
PG 0.1732
JM 0.1712
MY 0.1700
ZM 0.1651
MU 0.1643
DO 0.1628
NI 0.1624
NG 0.1611
VE 0.1610
GH 0.1607
MW 0.1601
HN 0.1600
BW 0.1594
AO 0.1553
CU 0.1549
GT 0.1531
PY 0.1517
MZ 0.1499
BR 0.1472
SG 0.1466
KE 0.1461
PA 0.1457
SV 0.1456
UG 0.1451
TR 0.1444
CY 0.1393
BO 0.1359
HT 0.1354
TZ 0.1352
NA 0.1342
PE 0.1332
NZ 0.1327
MT 0.1321
ZW 0.1305
RW 0.1300
PR 0.1287
CR 0.1286
IL 0.1284
GR 0.1266
CM 0.1246
AU 0.1235
EC 0.1227
US 0.1221
CO 0.1214
MK 0.1212
SN 0.1189
UY 0.1179
TG 0.1173
AM 0.1168
BJ 0.1164
MG 0.1157
BG 0.1155
GE 0.1142
GA 0.1135
MX 0.1124
CD 0.1123
CI 0.1119
ZA 0.1113
CA 0.1099
JP 0.1097
CL 0.1072
GB 0.1072
ML 0.1052
AF 0.1047
EE 0.1001
ME 0.0966
AR 0.0953
UA 0.0953
UZ 0.0924
MD 0.0907
IE 0.0897
BA 0.0894
RE 0.0894
BF 0.0893
TJ 0.0868
KG 0.0862
BY 0.0841
ES 0.0836
PT 0.0819
KZ 0.0818
LV 0.0813
LU 0.0808
FR 0.0805
KR 0.0804
GP 0.0797
MQ 0.0793
NL 0.0793
DK 0.0792
TW 0.0775
HR 0.0774
HK 0.0760
PL 0.0760
RO 0.0704
RS 0.0703
IT 0.0676
IS 0.0660
DE 0.0656
NO 0.0644
MO 0.0625
BE 0.0624
IR 0.0620
CH 0.0611
SE 0.0556
RU 0.0556
AT 0.0543
SI 0.0485
TM 0.0460
FI 0.0459
SK 0.0429
HU 0.0404
CZ 0.0391
`

// table7CA is the paper's Table 7 (certificate-authority centralization).
const table7CA = `
SK 0.3304
CZ 0.3268
EE 0.2811
IR 0.2807
SI 0.2623
HU 0.2555
RU 0.2474
TM 0.2462
BY 0.2418
LT 0.2404
UA 0.2354
LV 0.2332
TJ 0.2331
MD 0.2329
GR 0.2323
KZ 0.2289
RS 0.2259
TH 0.2243
KG 0.2235
HR 0.2222
BG 0.2200
RO 0.2198
AT 0.2183
AU 0.2179
DK 0.2165
UZ 0.2154
RE 0.2153
IS 0.2137
BA 0.2123
MT 0.2116
LA 0.2113
MQ 0.2107
NZ 0.2106
CH 0.2101
SE 0.2097
GP 0.2096
US 0.2096
MU 0.2084
MM 0.2077
NO 0.2074
IQ 0.2054
MG 0.2051
IE 0.2043
PR 0.2041
MK 0.2039
FI 0.2038
ME 0.2035
ID 0.2035
BN 0.2032
MV 0.2030
AF 0.2030
TT 0.2022
LU 0.2020
AL 0.2012
GB 0.2012
DE 0.2005
LY 0.2004
GA 0.1996
MO 0.1995
TZ 0.1992
JM 0.1988
JO 0.1984
BW 0.1978
BJ 0.1976
SY 0.1975
CD 0.1974
NL 0.1973
SG 0.1971
SO 0.1967
LB 0.1966
TG 0.1963
AE 0.1962
IL 0.1958
SD 0.1956
NP 0.1956
ZA 0.1956
CA 0.1953
ZW 0.1953
KH 0.1952
PG 0.1949
HT 0.1945
TN 0.1943
MW 0.1943
BF 0.1937
PS 0.1937
AM 0.1936
CY 0.1932
KW 0.1930
DZ 0.1928
UG 0.1926
IT 0.1924
CI 0.1923
GH 0.1922
PT 0.1920
QA 0.1920
AO 0.1920
SN 0.1918
BH 0.1917
NA 0.1917
ML 0.1913
GE 0.1910
BE 0.1910
PK 0.1908
ZM 0.1907
ET 0.1903
YE 0.1902
PY 0.1901
CU 0.1900
CM 0.1899
LK 0.1897
OM 0.1895
FR 0.1891
MY 0.1889
DO 0.1887
SA 0.1887
PL 0.1884
MA 0.1879
MZ 0.1874
RW 0.1870
KE 0.1868
AZ 0.1863
EG 0.1859
NI 0.1853
HK 0.1852
AR 0.1850
GT 0.1848
HN 0.1845
PA 0.1833
BO 0.1828
ES 0.1816
UY 0.1810
BD 0.1804
CR 0.1798
SV 0.1795
VE 0.1786
BR 0.1779
NG 0.1779
MX 0.1750
EC 0.1745
MN 0.1738
PH 0.1738
CL 0.1683
IN 0.1683
PE 0.1657
TR 0.1639
KR 0.1631
CO 0.1618
VN 0.1599
JP 0.1499
TW 0.1308
`

// table8TLD is the paper's Table 8 (TLD centralization).
const table8TLD = `
US 0.5853
PR 0.5358
TT 0.4821
JM 0.4771
CZ 0.4656
HU 0.4450
PL 0.4265
TH 0.4108
GR 0.4044
CR 0.4022
CA 0.4008
BN 0.3979
PA 0.3951
MM 0.3945
LA 0.3903
BR 0.3856
EG 0.3846
HN 0.3837
RO 0.3811
MW 0.3797
TR 0.3776
SK 0.3731
SO 0.3729
NI 0.3723
NG 0.3713
SV 0.3701
JO 0.3701
IT 0.3700
KW 0.3699
JP 0.3693
DK 0.3692
BH 0.3668
PG 0.3666
ZM 0.3658
LB 0.3647
FI 0.3646
UG 0.3635
YE 0.3620
KR 0.3613
KH 0.3610
LY 0.3610
MV 0.3609
GH 0.3609
SD 0.3608
BW 0.3600
ML 0.3595
GT 0.3595
NA 0.3591
ET 0.3586
IQ 0.3579
GP 0.3552
MQ 0.3539
SY 0.3535
MT 0.3530
AU 0.3530
BF 0.3521
DO 0.3517
PH 0.3510
CL 0.3496
FR 0.3481
GB 0.3470
VE 0.3469
GA 0.3468
OM 0.3450
RW 0.3439
IR 0.3418
RU 0.3416
HT 0.3407
AR 0.3391
NZ 0.3369
CU 0.3367
CO 0.3364
ES 0.3355
QA 0.3339
MX 0.3326
SA 0.3325
PS 0.3311
CM 0.3302
KE 0.3293
TZ 0.3284
TG 0.3284
NL 0.3270
SE 0.3258
MG 0.3254
DZ 0.3252
IN 0.3250
AE 0.3245
ZW 0.3233
MO 0.3227
HK 0.3223
BD 0.3214
MU 0.3203
BJ 0.3200
LT 0.3186
SG 0.3174
SN 0.3166
EC 0.3144
ZA 0.3143
AF 0.3142
NP 0.3138
CI 0.3128
CD 0.3108
RE 0.3106
NO 0.3098
PE 0.3077
BO 0.3076
MA 0.3055
TW 0.3054
BG 0.3051
SI 0.3043
IE 0.3040
LK 0.3024
PK 0.3015
PT 0.3009
IL 0.2971
UY 0.2966
DE 0.2920
RS 0.2914
MY 0.2905
TN 0.2893
HR 0.2878
AL 0.2781
PY 0.2700
EE 0.2694
MN 0.2624
AO 0.2592
BE 0.2573
MK 0.2560
MZ 0.2524
VN 0.2506
CY 0.2486
UA 0.2470
LV 0.2421
IS 0.2367
CH 0.2356
BY 0.2289
ID 0.2272
BA 0.2228
ME 0.2192
TM 0.2128
AT 0.2123
AZ 0.2035
GE 0.1936
LU 0.1838
AM 0.1794
KZ 0.1629
UZ 0.1569
TJ 0.1526
MD 0.1475
KG 0.1468
`
