// Package unranked is a layering fixture type-checked under the import
// path repro/internal/newlayer, which the table does not list.
package unranked // want `package repro/internal/newlayer has no layer`

import _ "repro/internal/sim"
