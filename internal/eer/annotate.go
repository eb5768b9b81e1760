package eer

import (
	"fmt"

	"dbre/internal/stats"
)

// Annotate refines a translated EER schema with cardinality and
// participation information read from the database extension — an analysis
// the paper leaves to the cited translation literature but that the same
// extension access used by IND-Discovery supports directly:
//
//   - on a binary relationship R(N) — S(1), the N-side leg becomes "1"
//     when the realizing foreign-key attributes are unique in R (the link
//     is one-to-one on the data);
//   - a leg is marked Optional when not every instance of its entity
//     participates: the N side when the foreign key is nullable, the 1
//     side when some target values are never referenced.
//
// Like every data-derived presumption in the method, annotations describe
// the current extension and deserve expert validation before being read
// as constraints. Every count is an extension query through cache, the
// counting path the discovery phases share.
func Annotate(cache *stats.Cache, s *Schema) error {
	for _, r := range s.Relationships {
		if len(r.Participants) != 2 {
			continue
		}
		// Identify the N side (holds the foreign key) and the 1 side.
		var nSide, oneSide *Participant
		for i := range r.Participants {
			switch r.Participants[i].Card {
			case "N":
				nSide = &r.Participants[i]
			case "1":
				oneSide = &r.Participants[i]
			}
		}
		if nSide == nil || oneSide == nil {
			continue // n-ary or already annotated differently
		}
		nTab := cache.TableFor(nSide.Entity)
		if nTab == nil {
			return fmt.Errorf("eer: relationship %s references unknown relation %q", r.Name, nSide.Entity)
		}
		if cache.TableFor(oneSide.Entity) == nil {
			return fmt.Errorf("eer: relationship %s references unknown relation %q", r.Name, oneSide.Entity)
		}

		// Row counts over the foreign key.
		nonNull, err := cache.NonNullRows(nSide.Entity, nSide.Via)
		if err != nil {
			return fmt.Errorf("eer: relationship %s: unknown attributes %v in %s", r.Name, nSide.Via, nSide.Entity)
		}
		distinctFK, err := cache.DistinctCount(nSide.Entity, nSide.Via)
		if err != nil {
			return err
		}
		// One-to-one on the data: every participating row has a distinct
		// target.
		if nonNull > 0 && distinctFK == nonNull {
			nSide.Card = "1"
		}
		// N-side participation: partial iff some rows carry a NULL key.
		nSide.Optional = nonNull < nTab.Len()

		// 1-side participation: partial iff some target values are never
		// referenced.
		distinctTargets, err := cache.DistinctCount(oneSide.Entity, oneSide.Via)
		if err != nil {
			return err
		}
		referenced, err := cache.JoinDistinctCount(nSide.Entity, nSide.Via, oneSide.Entity, oneSide.Via)
		if err != nil {
			return err
		}
		oneSide.Optional = referenced < distinctTargets
	}
	return nil
}
