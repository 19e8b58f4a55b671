package value

import "fmt"

// Dates are stored as days since the civil epoch 1970-01-01 (negative for
// earlier dates). The conversion uses the days-from-civil algorithm, exact
// over the full proleptic Gregorian calendar.

// DateFromCivil returns the day number of the given civil date.
func DateFromCivil(year, month, day int) int64 {
	y := int64(year)
	m := int64(month)
	d := int64(day)
	if m <= 2 {
		y--
	}
	var era int64
	if y >= 0 {
		era = y / 400
	} else {
		era = (y - 399) / 400
	}
	yoe := y - era*400 // [0, 399]
	var mp int64
	if m > 2 {
		mp = m - 3
	} else {
		mp = m + 9
	}
	doy := (153*mp+2)/5 + d - 1            // [0, 365]
	doe := yoe*365 + yoe/4 - yoe/100 + doy // [0, 146096]
	return era*146097 + doe - 719468       // shift so 1970-01-01 == 0
}

// CivilFromDate inverts DateFromCivil.
func CivilFromDate(days int64) (year, month, day int) {
	z := days + 719468
	var era int64
	if z >= 0 {
		era = z / 146097
	} else {
		era = (z - 146096) / 146097
	}
	doe := z - era*146097
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365
	y := yoe + era*400
	doy := doe - (365*yoe + yoe/4 - yoe/100)
	mp := (5*doy + 2) / 153
	d := doy - (153*mp+2)/5 + 1
	var m int64
	if mp < 10 {
		m = mp + 3
	} else {
		m = mp - 9
	}
	if m <= 2 {
		y++
	}
	return int(y), int(m), int(d)
}

// ParseDate parses exactly "YYYY-MM-DD" — four, two and two ASCII
// digits — into a day number. It rejects anything else, trailing text and
// signs included, and a day the month does not have: the date must
// round-trip through DateFromCivil and CivilFromDate.
func ParseDate(s string) (int64, error) {
	if len(s) != 10 || s[4] != '-' || s[7] != '-' {
		return 0, fmt.Errorf("value: bad date %q: want YYYY-MM-DD", s)
	}
	num := func(digits string) int {
		n := 0
		for i := 0; i < len(digits); i++ {
			c := digits[i]
			if c < '0' || c > '9' {
				return -1
			}
			n = n*10 + int(c-'0')
		}
		return n
	}
	y, m, d := num(s[:4]), num(s[5:7]), num(s[8:])
	if y < 0 || m < 0 || d < 0 {
		return 0, fmt.Errorf("value: bad date %q: want YYYY-MM-DD", s)
	}
	days := DateFromCivil(y, m, d)
	if y2, m2, d2 := CivilFromDate(days); m < 1 || m > 12 || y2 != y || m2 != m || d2 != d {
		return 0, fmt.Errorf("value: bad date %q: no such day", s)
	}
	return days, nil
}

// FormatDate renders a day number as "YYYY-MM-DD".
func FormatDate(days int64) string {
	y, m, d := CivilFromDate(days)
	return fmt.Sprintf("%04d-%02d-%02d", y, m, d)
}
